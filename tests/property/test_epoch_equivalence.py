"""Property: the compiled path never changes a result, only its speed.

``Cpu.run_compiled`` replays a compiled trace with the per-item work
inlined and every uncontended wait collapsed into a clock jump
(``Engine.try_jump`` and the pipes' ``try_jump_transfer``), and turns on
the same jumps in the VM fault, swap-out and controller paths.  Its
whole correctness contract is that this is unobservable: for any
application, system, data scale, RNG seed, and fault schedule, the
:class:`RunResult` must be *bit-identical* to the generator path's,
which runs every wait through the event queue.  Hypothesis drives the
sampling; ``tests/hw/test_epoch_boundaries.py`` constructs the machine
states in which a jump is most likely to be wrongly granted.

The test names keep the word "epochs" from the batched epoch executor
the compiled path replaced; its jump counter is still published as the
``epoch_events_jumped`` extra.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES
from repro.config import SimConfig
from repro.core.runner import run_experiment
from tests.conftest import assert_paths_identical


@given(
    app=st.sampled_from(sorted(APP_NAMES) + ["zipf", "ycsb-a"]),
    system=st.sampled_from(["standard", "nwcache"]),
    scale=st.sampled_from([0.02, 0.05, 0.08]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    faults=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_epochs_on_off_bit_identical(app, system, scale, seed, faults):
    kwargs = dict(
        system=system,
        data_scale=scale,
        cfg=SimConfig(seed=seed),
    )
    if faults:
        # Transient disk faults land at event boundaries mid-run; every
        # jump after them must still see an empty window.
        kwargs["faults"] = "disk_transient_rate=0.01"
    base = run_experiment(app, compiled_traces=False, **kwargs)
    fast = run_experiment(app, compiled_traces=True, **kwargs)
    assert_paths_identical(base, fast)


@given(
    app=st.sampled_from(["zipf", "ycsb-a", "radix"]),
    system=st.sampled_from(["standard", "nwcache"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window=st.sampled_from([2, 4]),
    faults=st.sampled_from(
        [None, "disk_transient_rate=0.02", "channel_failures=0;1@5e5"]
    ),
)
@settings(max_examples=10, deadline=None)
def test_eviction_dominated_epochs_bit_identical(
    app, system, seed, window, faults
):
    """The contended regime: a resident window far smaller than the
    working set makes nearly every visit an eviction-and-fetch, so the
    jumps race live swap traffic — with disk faults or failed ring
    channels landing mid-run when the fault schedule says so."""
    kwargs = dict(
        system=system,
        data_scale=0.05,
        cfg=SimConfig(seed=seed, l2_resident_pages=window),
    )
    if faults:
        kwargs["faults"] = faults
    base = run_experiment(app, compiled_traces=False, **kwargs)
    fast = run_experiment(app, compiled_traces=True, **kwargs)
    assert_paths_identical(base, fast)
