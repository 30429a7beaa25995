"""Trace compilation: compiled arrays decode to exactly the generator
stream, keys cover every input, and the in-process memo shares one
compilation per distinct input.

The compiled path's correctness story has two halves: this module pins
*stream* equivalence (compile → decode == generate) and key hygiene;
``test_trace_equivalence.py`` pins *simulation* equivalence (bit-equal
RunResults either way)."""

import pytest

from repro.apps import APP_NAMES, make_app
from repro.core.runner import linear_scale
from repro.core.trace import (
    KIND_BARRIER,
    KIND_VISIT,
    clear_memo,
    compile_workload,
    get_trace,
    trace_key,
    workload_fingerprint,
)
from repro.sim.rng import RngRegistry
from tests.conftest import SyntheticWorkload

SCALE = 0.1
SEED = 1999
N_NODES = 8


def generator_items(workload, n_nodes, seed, page_base=0):
    return [
        list(s)
        for s in workload.streams(n_nodes, page_base, RngRegistry(seed))
    ]


def app_at_scale(name, data_scale=SCALE):
    return make_app(name, scale=linear_scale(name, data_scale))


# ----------------------------------------------------------- equivalence
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_compiled_trace_decodes_to_generator_stream(app_name):
    """Per app: the arrays decode to exactly the generator's items."""
    app = app_at_scale(app_name)
    trace = compile_workload(app, N_NODES, SEED)
    want = generator_items(app_at_scale(app_name), N_NODES, SEED)
    assert trace.n_nodes == N_NODES
    assert trace.total_pages == app.total_pages
    assert len(trace.kinds) == N_NODES
    for proc in range(N_NODES):
        assert list(trace.items(proc)) == want[proc]


def test_decode_honors_page_base():
    app = app_at_scale("sor")
    trace = compile_workload(app, 4, SEED)
    want = generator_items(app_at_scale("sor"), 4, SEED, page_base=96)
    for proc in range(4):
        assert list(trace.items(proc, page_base=96)) == want[proc]


def test_compile_is_deterministic():
    a = compile_workload(app_at_scale("radix"), N_NODES, SEED)
    b = compile_workload(app_at_scale("radix"), N_NODES, SEED)
    assert a.barrier_keys == b.barrier_keys
    for proc in range(N_NODES):
        assert (a.kinds[proc] == b.kinds[proc]).all()
        assert (a.pages[proc] == b.pages[proc]).all()
        assert (a.reads[proc] == b.reads[proc]).all()
        assert (a.writes[proc] == b.writes[proc]).all()
        assert (a.thinks[proc] == b.thinks[proc]).all()


def test_barriers_encoded_inline_and_interned():
    app = app_at_scale("sor")
    trace = compile_workload(app, 4, SEED)
    # sor emits one barrier per iteration, identical across processors
    assert trace.barrier_keys == [("sor", it) for it in range(app.iterations)]
    for proc in range(4):
        kinds = trace.kinds[proc]
        assert (kinds == KIND_BARRIER).sum() == app.iterations
        assert set(kinds.tolist()) <= {KIND_VISIT, KIND_BARRIER}


def test_unknown_stream_item_raises_at_compile():
    class Bad(SyntheticWorkload):
        def _stream(self, n_nodes, node, base):
            yield ("explode",)

    with pytest.raises(ValueError, match="unknown stream item"):
        compile_workload(Bad(n_pages=4), 4, SEED)


def test_wrong_stream_count_raises():
    class Short(SyntheticWorkload):
        def streams(self, n_nodes, page_base, rng):
            return super().streams(n_nodes - 1, page_base, rng)

    with pytest.raises(ValueError, match="wrong number of streams"):
        compile_workload(Short(n_pages=4), 4, SEED)


# ------------------------------------------------------------- hypothesis
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=15, deadline=None)
@given(
    data_scale=st.floats(min_value=0.02, max_value=0.15),
    n_nodes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    app_name=st.sampled_from(["radix", "sor", "em3d"]),
)
def test_compile_matches_generator_property(data_scale, n_nodes, seed, app_name):
    """Equivalence holds across (scale, n_nodes, seed) — including the
    RNG-driven drivers (radix scatter targets, em3d remote edges)."""
    scale = linear_scale(app_name, data_scale)
    trace = compile_workload(
        make_app(app_name, scale=scale), n_nodes, seed
    )
    want = generator_items(make_app(app_name, scale=scale), n_nodes, seed)
    for proc in range(n_nodes):
        assert list(trace.items(proc)) == want[proc]


# ------------------------------------------------------------------- keys
def test_trace_key_covers_all_inputs():
    base = trace_key(app_at_scale("sor"), 8, SEED)
    assert trace_key(app_at_scale("sor"), 8, SEED) == base  # repeatable
    assert trace_key(app_at_scale("sor"), 8, SEED + 1) != base     # seed
    assert trace_key(app_at_scale("sor", 0.2), 8, SEED) != base    # scale
    assert trace_key(app_at_scale("sor"), 4, SEED) != base         # nodes
    assert trace_key(app_at_scale("gauss"), 8, SEED) != base       # app
    bigger_pages = make_app(
        "sor", scale=linear_scale("sor", SCALE), page_size=8192
    )
    assert trace_key(bigger_pages, 8, SEED) != base                # page size
    more_iters = make_app(
        "sor", scale=linear_scale("sor", SCALE), iterations=11
    )
    assert trace_key(more_iters, 8, SEED) != base                  # app params


def test_fingerprint_separates_classes_with_same_params():
    a = SyntheticWorkload(n_pages=8)

    class Other(SyntheticWorkload):
        pass

    b = Other(n_pages=8)
    assert vars(a) == vars(b)
    assert workload_fingerprint(a) != workload_fingerprint(b)


# ------------------------------------------------------------------- memo
@pytest.fixture
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def test_get_trace_memoizes_until_cleared(fresh_memo):
    a = get_trace(app_at_scale("mg"), 4, SEED)
    b = get_trace(app_at_scale("mg"), 4, SEED)
    assert a is b  # equal inputs share one compilation
    clear_memo()
    c = get_trace(app_at_scale("mg"), 4, SEED)
    assert c is not a  # a cleared memo recompiles
    for proc in range(4):
        assert list(c.items(proc)) == list(a.items(proc))


def test_changed_inputs_compile_distinct_traces(fresh_memo):
    """Memo invalidation: a changed seed, scale or node count compiles a
    distinct trace, never a stale reuse."""
    base = get_trace(app_at_scale("radix"), 4, SEED)
    other_seed = get_trace(app_at_scale("radix"), 4, SEED + 1)
    other_scale = get_trace(app_at_scale("radix", 0.15), 4, SEED)
    other_nodes = get_trace(app_at_scale("radix"), 2, SEED)
    traces = [base, other_seed, other_scale, other_nodes]
    assert len({id(t) for t in traces}) == 4
    assert (other_seed.seed, other_nodes.n_nodes) == (SEED + 1, 2)
    assert other_scale.total_pages != base.total_pages
    assert get_trace(app_at_scale("radix"), 4, SEED) is base
