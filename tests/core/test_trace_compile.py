"""The trace compiler: compiled arrays decode to exactly the generator
stream, keys cover every input, and the on-disk cache round-trips.

The compiled path's correctness story has two halves: this module pins
*stream* equivalence (compile → decode == generate) and key hygiene;
``test_trace_equivalence.py`` pins *simulation* equivalence (bit-equal
RunResults either way)."""

import pytest

from repro.apps import APP_NAMES, make_app
from repro.core.runner import linear_scale
from repro.core.cache import CORRUPT_DIR, read_envelope, write_envelope
from repro.core.trace import (
    _TRACE_MAGIC,
    TRACE_FORMAT_VERSION,
    CompiledTrace,
    KIND_BARRIER,
    KIND_VISIT,
    TraceCache,
    clear_memo,
    compile_workload,
    get_trace,
    resolve_trace_cache,
    trace_cache_enabled,
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


# ------------------------------------------------------------- disk cache
def test_trace_cache_roundtrip(tmp_path):
    cache = TraceCache(tmp_path)
    app = app_at_scale("fft")
    trace = compile_workload(app, 4, SEED)
    key = trace_key(app, 4, SEED)
    assert key not in cache
    assert cache.get(key) is None
    cache.put(key, trace)
    assert key in cache
    assert len(cache) == 1
    back = cache.get(key)
    assert isinstance(back, CompiledTrace)
    assert back.app == "fft"
    for proc in range(4):
        assert list(back.items(proc)) == list(trace.items(proc))
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.clear() == 1
    assert len(cache) == 0


def test_trace_cache_rejects_corrupt_and_foreign_entries(tmp_path):
    cache = TraceCache(tmp_path)
    app = app_at_scale("lu")
    key = trace_key(app, 4, SEED)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None
    import pickle

    path.write_bytes(pickle.dumps({"not": "a trace"}))
    assert cache.get(key) is None
    stale = compile_workload(app, 4, SEED)
    stale.version = -1
    cache.put(key, stale)
    assert cache.get(key) is None  # format version mismatch


def test_previous_format_entry_is_recompiled_not_loaded(tmp_path):
    """An entry written by the previous trace format (v3 carried a
    ``reuse`` column) is quarantined and recompiled, never replayed."""
    cache = TraceCache(tmp_path)
    app = app_at_scale("sor")
    key = trace_key(app, 4, SEED)
    old = compile_workload(app, 4, SEED)
    old.version = TRACE_FORMAT_VERSION - 1
    old.reuse = [k.astype("int64") for k in old.kinds]
    write_envelope(cache._path(key), _TRACE_MAGIC, old.version, old)
    clear_memo()
    try:
        with pytest.warns(RuntimeWarning, match="quarantined"):
            trace = get_trace(app, 4, SEED, cache=cache)
    finally:
        clear_memo()
    assert trace is not old
    assert trace.version == TRACE_FORMAT_VERSION
    assert not hasattr(trace, "reuse")
    assert (cache.hits, cache.misses) == (0, 1)
    assert list((tmp_path / CORRUPT_DIR).iterdir())  # old file set aside
    stored = read_envelope(cache._path(key), _TRACE_MAGIC,
                           TRACE_FORMAT_VERSION)
    assert stored.version == TRACE_FORMAT_VERSION


def test_kill_switch_disables_default_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("NWCACHE_TRACE_CACHE", "0")
    assert not trace_cache_enabled()
    assert resolve_trace_cache(None) is None
    # explicit caches are exempt from the kill switch
    explicit = TraceCache(tmp_path)
    assert resolve_trace_cache(explicit) is explicit
    assert resolve_trace_cache(False) is None
    monkeypatch.setenv("NWCACHE_TRACE_CACHE", "1")
    assert trace_cache_enabled()
    monkeypatch.setenv("NWCACHE_CACHE_DIR", str(tmp_path))
    resolved = resolve_trace_cache(None)
    assert resolved is not None
    assert resolved.directory == tmp_path / "traces"


def test_get_trace_memoizes_and_hits_disk(tmp_path):
    cache = TraceCache(tmp_path)
    app = app_at_scale("mg")
    clear_memo()
    try:
        a = get_trace(app, 4, SEED, cache=cache)
        b = get_trace(app_at_scale("mg"), 4, SEED, cache=cache)
        assert a is b  # in-process memo shares the compilation
        clear_memo()
        c = get_trace(app_at_scale("mg"), 4, SEED, cache=cache)
        assert cache.hits == 1  # fresh process would reload from disk
        assert list(c.items(0)) == list(a.items(0))
    finally:
        clear_memo()


def test_changed_inputs_compile_distinct_traces(tmp_path):
    """Cache invalidation: changed seed/scale produce different keys and
    different cached entries, never a stale reuse."""
    cache = TraceCache(tmp_path)
    clear_memo()
    try:
        get_trace(app_at_scale("radix"), 4, SEED, cache=cache)
        get_trace(app_at_scale("radix"), 4, SEED + 1, cache=cache)
        get_trace(app_at_scale("radix", 0.15), 4, SEED, cache=cache)
        assert len(cache) == 3
    finally:
        clear_memo()
