"""The processor model: executes an application reference stream.

Each CPU consumes a per-processor stream of items emitted by a workload
driver:

* ``("visit", page, n_reads, n_writes, think_cycles)`` — the processor
  performs ``n_reads + n_writes`` accesses to ``page`` plus
  ``think_cycles`` of pure computation;
* ``("barrier", key)`` — synchronize with all other processors.

Pure-compute and bookkeeping time (busy cycles, TLB walk charges,
shootdown interrupts) is accumulated *lazily* in a pending-time buffer
and materialized as a single timeout whenever the processor is about to
interact with a shared resource (bus, network, page fault, barrier) or
the buffer exceeds ``FLUSH_QUANTUM_PCYCLES``.  This keeps hot loops at
zero events per visit while preserving the ordering of all contended
interactions, and guarantees that the per-category time account sums to
the processor's execution time.

There are two execution paths with identical trajectories:
:meth:`Cpu.run` walks a driver's item generator through the evented
kernel and is the reference the identity tests compare against;
:meth:`Cpu.run_compiled` replays a compiled trace's columns with the
per-item work inlined and every uncontended wait collapsed into a clock
jump.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.config import SimConfig
from repro.hw.accounting import CATEGORIES, TimeAccount
from repro.hw.cache import CacheModel
from repro.hw.network import MeshNetwork
from repro.osim.sync import BarrierRegistry
from repro.sim import BandwidthPipe, Counter, Engine
from repro.sim.events import Event, Timeout

#: pending time is flushed at least this often (pcycles)
FLUSH_QUANTUM_PCYCLES = 20_000.0

#: stream item types
Item = Tuple[Any, ...]


class Cpu:
    """One processor: runs a reference stream against the VM system."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        node: int,
        cache: CacheModel,
        vm: Any,
        network: MeshNetwork,
        mem_buses: List[BandwidthPipe],
        barriers: BarrierRegistry,
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.node = node
        self.cache = cache
        self.vm = vm
        self.network = network
        self.mem_buses = mem_buses
        self.barriers = barriers
        self.acct = TimeAccount()
        self.stats = Counter()
        self._pending: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self._pending_sum = 0.0  #: running total of self._pending
        self._stolen: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self._stolen_sum = 0.0  #: running total of self._stolen
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- lazy time ---------------------------------------------------------
    def add_pending(self, category: str, cycles: float) -> None:
        """Queue ``cycles`` of ``category`` time to materialize later."""
        self._pending[category] += cycles
        self._pending_sum += cycles

    def steal(self, category: str, cycles: float) -> None:
        """Another component (shootdown) consumes this CPU's cycles."""
        self._stolen[category] += cycles
        self._stolen_sum += cycles

    def _pending_total(self) -> float:
        # Maintained incrementally: summing the dict per visit was the
        # hottest per-item cost.  The sum resets to exactly 0.0 at every
        # flush, so float drift cannot accumulate across quanta.
        return self._pending_sum

    def _fold_stolen(self) -> None:
        """Move the cycles shootdowns stole into the pending buffer.

        Called only when ``_stolen_sum`` is nonzero, i.e. when a
        shootdown actually charged this CPU since the last flush.
        """
        pending = self._pending
        stolen = self._stolen
        for cat, v in stolen.items():
            if v:
                pending[cat] += v
                self._pending_sum += v
                stolen[cat] = 0.0
        self._stolen_sum = 0.0

    def _drain_pending(self) -> None:
        """Charge the just-materialized pending time to its categories."""
        times = self.acct.times
        pending = self._pending
        for cat, v in pending.items():
            if v:
                times[cat] += v
                pending[cat] = 0.0
        self._pending_sum = 0.0

    def _flush(self) -> Generator[Event, Any, None]:
        """Materialize pending time as one timeout and charge categories."""
        if self._stolen_sum:
            self._fold_stolen()
        total = self._pending_sum
        if total > 0.0:
            yield Timeout(self.engine, total)
            self._drain_pending()

    # -- execution ---------------------------------------------------------
    def run(self, stream: Iterable[Item]) -> Generator[Event, Any, None]:
        """The CPU process: execute the whole stream, then finish."""
        self.started_at = self.engine.now
        for item in stream:
            kind = item[0]
            if kind == "visit":
                _, page, n_reads, n_writes, think = item
                yield from self._visit(page, n_reads, n_writes, think)
            elif kind == "barrier":
                yield from self._flush()
                t0 = self.engine.now
                yield self.barriers.get(item[1]).wait()
                self.acct.charge("other", self.engine.now - t0)
                self.stats.add("barriers")
            else:
                raise ValueError(f"unknown stream item {item!r}")
        yield from self._flush()
        self.finished_at = self.engine.now

    def run_compiled(
        self, trace: Any, proc: int, page_base: int
    ) -> Generator[Event, Any, None]:
        """Trace-fed fast path: execute a compiled trace's arrays directly.

        Trajectory-identical to :meth:`run` over the decoded item stream
        — same clock, same charges, same event count, same final
        counters; the golden traces, the differential oracle and the
        compiled-vs-generator property suite pin this — but with the
        per-item work inlined: no driver generator to resume, no
        ``_visit`` sub-generator per item, no per-item counter updates
        (visit/barrier stats are accumulated in locals and added once at
        the end; nothing observes them mid-run).  The ``self._pending``
        dict is still updated item by item, because the audit invariants
        inspect it between events.

        Every wait first attempts an uncontended clock jump
        (``Engine.try_jump``, ``BandwidthPipe.try_jump_transfer``,
        ``MeshNetwork.try_jump_transfer``) and schedules real events only
        when the jump is refused.  A jump succeeds only when no queued
        event falls at or before its target, so it consumes exactly the
        clock advance, event ids and event count the evented wait would
        have: nothing else could have run in between.
        """
        from repro.core.trace import KIND_VISIT

        self.started_at = self.engine.now
        # Cached bulk decode to plain Python scalars (see
        # CompiledTrace.columns): bit-identical arithmetic, paid once per
        # trace rather than once per run.
        kinds, page_col, read_col, write_col, think_col = trace.columns(proc)
        barrier_keys = trace.barrier_keys
        engine = self.engine
        try_jump = engine.try_jump
        # Fast-refuse guard for the flush jumps below: when the next
        # queued event is due at or before the jump target, try_jump can
        # only say no — skip the call.  (try_jump itself re-checks this
        # plus the run-limit and multi-dispatch conditions.)
        equeue = engine._queue
        vm = self.vm
        fast_access = vm.fast_access
        resolve = vm.resolve
        cache_visit = self.cache.visit
        barrier_get = self.barriers.get
        acct = self.acct
        acct_charge = acct.charge
        pending = self._pending
        fold_stolen = self._fold_stolen
        drain = self._drain_pending
        mem_buses = self.mem_buses
        network = self.network
        net_route_cache = network._route_cache
        net_link_rate = network._link_rate
        node = self.node
        remote_latency = self.cfg.remote_latency_pcycles
        n_visits = n_slow = n_remote = n_barriers = 0
        # The four flush blocks below are :meth:`_flush`, inlined and
        # jump-first: a flush precedes every contended interaction, so
        # delegating to the sub-generator (one allocation + double
        # dispatch per flush) was a measurable share of the per-item
        # cost.  ``self._pending_sum`` and the dicts stay current at
        # every yield for the audit invariants.
        #
        # zip instead of indexing: one tuple unpack per item replaces five
        # list subscripts (for barriers, ``pg`` carries the key index).
        for kind, pg, n_reads, n_writes, think in zip(
            kinds, page_col, read_col, write_col, think_col
        ):
            if kind == KIND_VISIT:
                n_visits += 1
                page = page_base + pg
                is_write = n_writes > 0
                home = fast_access(node, page, is_write)
                if home is None:
                    # Page fault (or wait on a page in motion): slow path.
                    if self._stolen_sum:
                        fold_stolen()
                    total = self._pending_sum
                    if total > 0.0:
                        if (
                            equeue and equeue[0][0] <= engine._now + total
                        ) or not try_jump(total, 1):
                            yield Timeout(engine, total)
                        drain()
                    home = yield from resolve(node, page, is_write, acct)
                    n_slow += 1
                busy, miss_bytes = cache_visit(page, n_reads + n_writes)
                v = busy + think
                pending["other"] += v
                self._pending_sum += v
                if miss_bytes:
                    if self._stolen_sum:
                        fold_stolen()
                    total = self._pending_sum
                    if total > 0.0:
                        if (
                            equeue and equeue[0][0] <= engine._now + total
                        ) or not try_jump(total, 1):
                            yield Timeout(engine, total)
                        drain()
                    t0 = engine._now
                    bus = mem_buses[home]
                    if not bus.try_jump_transfer(miss_bytes):
                        # BandwidthPipe.transfer, inlined: the same
                        # request / timeout / release sequence without
                        # allocating a delegate generator per miss.
                        req = bus._server.request(0)
                        yield req
                        try:
                            yield Timeout(
                                engine, bus.overhead + miss_bytes / bus.rate
                            )
                            bus.bytes_transferred += miss_bytes
                        finally:
                            bus._server.release(req)
                    if home != node:
                        if not network.try_jump_transfer(
                            home, node, miss_bytes
                        ):
                            # MeshNetwork.transfer, inlined likewise
                            # (home != node, so the route always has
                            # links to hold).
                            t0n = engine._now
                            ent = net_route_cache.get((home, node))
                            if ent is None:
                                ent = network._route_entry(home, node)
                            links, fixed, _h = ent
                            requests = []
                            try:
                                for res in links:
                                    nreq = res.request(0)
                                    requests.append(nreq)
                                    yield nreq
                                yield Timeout(
                                    engine, fixed + miss_bytes / net_link_rate
                                )
                            finally:
                                for res, nreq in zip(links, requests):
                                    res.release(nreq)
                            network.bytes_sent += miss_bytes
                            network.latency.record(engine._now - t0n)
                        if not try_jump(remote_latency, 1):
                            yield Timeout(engine, remote_latency)
                        n_remote += 1
                    acct_charge("other", engine._now - t0)
                if self._pending_sum >= FLUSH_QUANTUM_PCYCLES:
                    if self._stolen_sum:
                        fold_stolen()
                    total = self._pending_sum
                    if (
                        equeue and equeue[0][0] <= engine._now + total
                    ) or not try_jump(total, 1):
                        yield Timeout(engine, total)
                    drain()
            else:
                if self._stolen_sum:
                    fold_stolen()
                total = self._pending_sum
                if total > 0.0:
                    if (
                        equeue and equeue[0][0] <= engine._now + total
                    ) or not try_jump(total, 1):
                        yield Timeout(engine, total)
                    drain()
                t0 = engine._now
                yield barrier_get(barrier_keys[pg]).wait()
                acct_charge("other", engine._now - t0)
                n_barriers += 1
        yield from self._flush()
        self.finished_at = engine.now
        stats = self.stats
        if n_visits:
            stats.add("visits", n_visits)
        if n_slow:
            stats.add("slow_accesses", n_slow)
        if n_remote:
            stats.add("remote_fetches", n_remote)
        if n_barriers:
            stats.add("barriers", n_barriers)

    def run_epochs(
        self, trace: Any, proc: int, page_base: int
    ) -> Generator[Event, Any, None]:
        """Former name of :meth:`run_compiled`, kept because the
        benchmark's layer map (``perfbench/layers.py``) still names it as
        a ``hw.cpu`` entry point.  Nothing in the simulator calls it."""
        return self.run_compiled(trace, proc, page_base)

    def _visit(
        self, page: int, n_reads: int, n_writes: int, think: float
    ) -> Generator[Event, Any, None]:
        self.stats.add("visits")
        is_write = n_writes > 0
        home = self.vm.fast_access(self.node, page, is_write)
        if home is None:
            # Page fault (or wait on a page in motion): slow path.
            yield from self._flush()
            home = yield from self.vm.resolve(self.node, page, is_write, self.acct)
            self.stats.add("slow_accesses")
        busy, miss_bytes = self.cache.visit(page, n_reads + n_writes)
        self.add_pending("other", busy + think)
        if miss_bytes:
            yield from self._flush()
            t0 = self.engine.now
            if home == self.node:
                yield from self.mem_buses[self.node].transfer(miss_bytes)
            else:
                # Remote fetch: home memory bus, then the mesh back to us.
                yield from self.mem_buses[home].transfer(miss_bytes)
                yield from self.network.transfer(home, self.node, miss_bytes)
                yield self.engine.timeout(self.cfg.remote_latency_pcycles)
                self.stats.add("remote_fetches")
            self.acct.charge("other", self.engine.now - t0)
        if self._pending_total() >= FLUSH_QUANTUM_PCYCLES:
            yield from self._flush()
