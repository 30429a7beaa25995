"""Cold fault chains under the compiled path's clock jumps.

On a node whose frame pool never reaches its watermark nearly every
miss is a cold fault, and every step of its resolve chain — TLB miss,
frame grab, controller service, bus crossings, install — is a wait the
compiled path may jump.  Transient disk faults land mid-chain.
"""

from repro.core.runner import experiment_config, run_experiment
from tests.conftest import JUMPED, assert_paths_identical


def test_fault_chains_preserve_bit_identity():
    scale = 0.3
    kwargs = dict(
        system="nwcache",
        prefetch="optimal",
        data_scale=scale,
        cfg=experiment_config(
            scale, n_nodes=1, n_io_nodes=1, memory_per_node=1048576
        ),
        faults="disk_transient_rate=0.01",
    )
    base = run_experiment("zipf", compiled_traces=False, **kwargs)
    fast = run_experiment("zipf", compiled_traces=True, **kwargs)
    assert_paths_identical(base, fast)
    assert base.events_processed == fast.events_processed
    assert fast.extras[JUMPED] > 0
