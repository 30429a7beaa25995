"""Trajectory neutrality: compiled-trace runs are bit-identical to
generator runs for every application, with and without the invariant
auditor.

This is the guarantee that lets the golden traces and the differential
oracle carry over unchanged while the default run path replays compiled
arrays: the fast path may change *how fast* the simulator walks the
stream, never *what* it simulates."""

import pytest

from repro.apps import APP_NAMES
from repro.core.machine import Machine
from repro.core.runner import run_experiment
from repro.config import SimConfig
from tests.conftest import SyntheticWorkload
from tests.regression.test_golden_traces import snapshot

SCALE = 0.05

#: all compilable registered apps: the 7 kernels + open-loop generators
EQUIV_APPS = APP_NAMES + ["zipf", "ycsb-a", "ycsb-d"]


def run_snapshot(app, compiled, audit=False, system="nwcache"):
    res = run_experiment(
        app, system, "naive", data_scale=SCALE,
        audit=audit or None, compiled_traces=compiled,
    )
    return snapshot(res), res


def _sans_epoch(extras):
    # ``epoch_events_jumped`` rides only the compiled path; it describes
    # the execution strategy, not the simulated machine, and sits outside
    # the bit-identity contract.
    return {k: v for k, v in extras.items() if not k.startswith("epoch_")}


@pytest.mark.parametrize("app", EQUIV_APPS)
def test_compiled_equals_generator(app):
    gen, gen_res = run_snapshot(app, compiled=False)
    cmp, cmp_res = run_snapshot(app, compiled=True)
    assert cmp == gen
    assert _sans_epoch(cmp_res.extras) == _sans_epoch(gen_res.extras)
    assert [a.as_dict() for a in cmp_res.per_cpu] == [
        a.as_dict() for a in gen_res.per_cpu
    ]


@pytest.mark.parametrize("app", APP_NAMES + ["zipf"])
def test_compiled_equals_generator_under_audit(app):
    """Same law with the runtime auditor checking invariants mid-run —
    the compiled path must expose identical intermediate CPU state."""
    gen, gen_res = run_snapshot(app, compiled=False, audit=True)
    cmp, cmp_res = run_snapshot(app, compiled=True, audit=True)
    assert cmp == gen
    assert cmp_res.extras["audit_checks"] > 0
    assert _sans_epoch(cmp_res.extras) == _sans_epoch(gen_res.extras)


def test_compiled_equals_generator_standard_machine():
    gen, _ = run_snapshot("sor", compiled=False, system="standard")
    cmp, _ = run_snapshot("sor", compiled=True, system="standard")
    assert cmp == gen


def test_cpu_counters_match_between_paths():
    cfg = SimConfig.tiny()
    wl = SyntheticWorkload(n_pages=24, sweeps=3, shared=True, write=True)
    m_gen = Machine(cfg, "standard", "optimal", compiled_traces=False)
    m_cmp = Machine(cfg, "standard", "optimal", compiled_traces=True)
    r_gen = m_gen.run(SyntheticWorkload(n_pages=24, sweeps=3, shared=True,
                                        write=True))
    r_cmp = m_cmp.run(wl)
    assert snapshot(r_cmp) == snapshot(r_gen)
    for a, b in zip(m_cmp.cpus, m_gen.cpus):
        assert a.stats.as_dict() == b.stats.as_dict()
        assert a._pending_total() == 0.0


def test_workload_can_opt_out_of_compilation():
    class Uncompilable(SyntheticWorkload):
        trace_compilable = False

    m = Machine(SimConfig.tiny(), "standard", "optimal", compiled_traces=True)
    res = m.run(Uncompilable(n_pages=8, sweeps=1))
    # generator path taken: same results, no trace involved
    gen = Machine(
        SimConfig.tiny(), "standard", "optimal", compiled_traces=False
    ).run(SyntheticWorkload(n_pages=8, sweeps=1))
    assert snapshot(res) == snapshot(gen)


def test_env_kill_switch_disables_compiled_path(monkeypatch):
    monkeypatch.setenv("NWCACHE_COMPILED_TRACES", "0")
    m = Machine(SimConfig.tiny(), "standard", "optimal")
    assert m.compiled_traces is False
    monkeypatch.delenv("NWCACHE_COMPILED_TRACES")
    assert Machine(SimConfig.tiny(), "standard", "optimal").compiled_traces
