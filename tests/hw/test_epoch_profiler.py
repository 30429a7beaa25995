"""The compiled path's jump profile describes execution, not the machine.

A compiled run publishes one execution-strategy extra,
``epoch_events_jumped``: how many of the run's events were clock jumps
rather than heap events.  It is absent whenever the generator path ran,
and it is the only extra the two paths disagree on, so every
bit-identity snapshot strips exactly that key and nothing else.
"""

from repro.core.runner import run_experiment
from tests.conftest import JUMPED

SCALE = 0.05


def test_profile_absent_with_epochs_off():
    res = run_experiment("zipf", "nwcache", "naive", data_scale=SCALE,
                         compiled_traces=False)
    assert not any(k.startswith("epoch_") for k in res.extras)


def test_profile_is_the_only_extras_difference():
    base = run_experiment("ycsb-b", "nwcache", "naive", data_scale=SCALE,
                          compiled_traces=False)
    fast = run_experiment("ycsb-b", "nwcache", "naive", data_scale=SCALE,
                          compiled_traces=True)
    assert set(fast.extras) - set(base.extras) == {JUMPED}
    stripped = {k: v for k, v in fast.extras.items() if k != JUMPED}
    assert stripped == base.extras
    # jumps stand in for heap events, so they are counted among them
    assert 0 < fast.extras[JUMPED] <= fast.events_processed
    assert fast.events_processed == base.events_processed
