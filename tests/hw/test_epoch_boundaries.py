"""The compiled path's clock jumps, in the machine states that test them.

``Cpu.run_compiled`` may collapse a wait into a clock jump only when no
other event is due before it ends.  These tests construct the states
in which a jump is most likely to be wrongly granted — misses on every
revisit, TLB overflow, pages shared (and shot down) across processors,
pages parked on the optical ring, eviction-dominated writes, a victim
race across processors, a ring degrading mid-run, an exhausted frame
pool, barrier releases dispatching several processes at once — and
check that the result stays bit-identical to the generator path's
(``run_both_paths`` asserts it).  The names of the older tests keep
the word "epoch" from the batched executor the compiled path replaced.
"""

from repro.apps.base import barrier, block_range, visit
from repro.sim import Engine
from tests.conftest import JUMPED, SyntheticWorkload, run_both_paths


# ------------------------------------------------------ contended shapes
def test_out_of_window_reuse_is_contended_or_identical():
    """8 pages per CPU against a 4-page resident window: every revisit
    misses, and with four processors advancing in lockstep the event
    queue nearly always holds a peer inside the jump's horizon."""
    run_both_paths(
        n_pages=32, sweeps=8, accesses=1, write=False, think=10.0,
        use_barriers=False,
    )


def test_tlb_overflow_commits_via_contended_step():
    """12 distinct pages per CPU overflow the 8-entry TLB: every TLB
    miss, insertion and eviction happens inside the jumped waits."""
    run_both_paths(
        cfg_kwargs=dict(l2_resident_pages=16, memory_per_node=64 * 1024),
        n_pages=48, sweeps=16, accesses=2, write=False, think=10.0,
        use_barriers=False,
    )


def test_tlb_cap_truncates_each_epoch():
    """16 distinct pages per CPU against a 12-entry TLB, smaller than
    the 16-page resident window."""
    run_both_paths(
        # 128K/node leaves free frames: at exactly 64 pages / 64 frames
        # the min-free reserve keeps pages cycling through swapouts.
        cfg_kwargs=dict(l2_resident_pages=16, tlb_entries=12,
                        memory_per_node=128 * 1024),
        n_pages=64, sweeps=16, accesses=2, write=False, think=10.0,
        use_barriers=False,
    )


def test_shared_pages_contend_and_stay_identical():
    """All CPUs hammer the same pages: misses, bus transfers and TLB
    shootdowns land between any two items."""
    run_both_paths(
        n_pages=8, sweeps=8, accesses=4, write=True, shared=True,
        think=10.0,
    )


def test_ring_resident_pages_defeat_validation():
    """Out-of-core NWCache run: 64 pages against 32 frames cycle
    through the optical ring's slots, so faults are served from the
    ring while swap-outs insert into it."""
    res = run_both_paths(
        system="nwcache",
        n_pages=64, sweeps=4, accesses=2, write=True, think=10.0,
    )
    assert res.metrics.counts["ring_hits"] > 0


# ------------------------------------------------ eviction and failover
def test_eviction_dominated_writes_stay_identical():
    """Dirty pages far beyond the resident window: every revisit is a
    cache miss and most faults evict a dirty victim, so the bus jumps
    contend with live swap-out traffic."""
    res = run_both_paths(
        cfg_kwargs=dict(l2_resident_pages=2),
        n_pages=32, sweeps=6, accesses=2, write=True, think=50.0,
        use_barriers=False,
    )
    assert res.metrics.counts["swapouts"] > 0
    assert res.extras[JUMPED] > 0


def test_victim_race_across_processors_stays_identical():
    """All four processors write the same pages against a frame pool
    too small to hold them: a page one CPU just touched can be another
    CPU's eviction victim while its own transfer is in flight."""
    res = run_both_paths(
        cfg_kwargs=dict(memory_per_node=16 * 1024),  # 4 frames/node
        n_pages=16, sweeps=6, accesses=2, write=True, shared=True,
        think=10.0, use_barriers=False,
    )
    assert res.metrics.counts["transit_waits"] > 0
    assert res.extras[JUMPED] > 0


def test_writeback_during_degraded_ring_stays_identical():
    """NWCache run with half the optical channels failing mid-run:
    writebacks started on the ring degrade to the standard interconnect
    path, so the swap path's jumps must stay exact across the
    failover."""
    res = run_both_paths(
        system="nwcache",
        cfg_kwargs=dict(faults="channel_failures=0;1@5e5"),
        n_pages=48, sweeps=4, accesses=2, write=True, think=10.0,
    )
    assert res.metrics.faults["channel_failed"] == 2
    assert res.metrics.counts["ring_hits"] > 0
    assert res.extras[JUMPED] > 0


def test_frame_pool_exhaustion_mid_run_stays_identical():
    """4 frames per node against 12 dirty pages per CPU: the free-frame
    reserve empties mid-run and faults stall on swap-outs, whose
    completions must wake the stalled CPUs at the evented times."""
    res = run_both_paths(
        cfg_kwargs=dict(memory_per_node=16 * 1024),  # 4 frames/node
        n_pages=48, sweeps=4, accesses=1, write=True, think=10.0,
        use_barriers=False,
    )
    assert res.breakdown["nofree"] > 0
    assert res.extras[JUMPED] > 0


# ------------------------------------------------------- multi-dispatch
def test_try_jump_refused_during_multi_dispatch():
    """A barrier-style event resuming several processes pins the clock:
    none of the siblings may jump until all have observed it."""
    eng = Engine()
    gate = eng.event()
    observed = []

    def waiter():
        yield gate
        observed.append(eng.try_jump(5.0))

    eng.process(waiter())
    eng.process(waiter())

    def trigger():
        yield eng.timeout(10)
        gate.succeed()

    eng.process(trigger())
    eng.run()
    assert observed == [False, False]
    assert eng.now == 10.0


def test_try_jump_allowed_for_single_callback():
    eng = Engine()
    done = []

    def proc():
        yield eng.timeout(10)
        done.append(eng.try_jump(5.0))

    eng.process(proc())
    eng.run()
    assert done == [True]
    assert eng.now == 15.0


class _SkewedSweeps(SyntheticWorkload):
    """Private in-window sweeps between barriers, processor ``n``
    thinking ``n + 1`` times as long per visit."""

    def _stream(self, n_nodes, node, base):
        pages = block_range(self.n_pages, n_nodes, node)
        for s in range(self.sweeps):
            for p in pages:
                yield visit(base + p, self.accesses, 0,
                            self.think * (node + 1))
            yield barrier(("sweep", s))


def test_multi_dispatch_refusals_stay_identical(monkeypatch):
    """Each barrier release resumes the three early arrivals from one
    event, and each runs its whole next sweep to the next barrier's
    flush before its siblings have observed the release.  The slowest
    processor arrives last, so its own flush timeout lies beyond the
    early arrivals' flush targets: only the multi-dispatch guard
    refuses their jumps, and the trajectory must not notice."""
    refused = []
    real_try_jump = Engine.try_jump

    def spy(self, delay, n_events=1):
        queue = self._queue
        if self._multi_dispatch and not (
            queue and queue[0][0] <= self._now + delay
        ):
            refused.append(delay)
        return real_try_jump(self, delay, n_events)

    monkeypatch.setattr(Engine, "try_jump", spy)
    run_both_paths(
        workload=_SkewedSweeps,
        n_pages=8, sweeps=32, accesses=1, write=False, think=10.0,
    )
    assert refused
