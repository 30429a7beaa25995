"""The leased sweep worker: claim, run, renew, survive, drain.

A worker is just a process pointed at a sweep directory (and the shared
result cache).  Any number can run concurrently, on any hosts that see
the same paths; none of them is special, and the sweep's correctness
never depends on any one of them surviving:

* **claim** — the worker leases the oldest runnable cell
  (:meth:`SweepQueue.claim`), expiring stale leases as it looks, and
  keeps up to ``jobs`` cells in flight;
* **dedupe** — if the content-addressed result cache already holds the
  cell's key (another worker finished it, or a previous life of this
  sweep did), the cell completes without simulating anything — this is
  what makes re-execution after *any* crash idempotent;
* **run** — every other cell runs in its own child process
  (:class:`~repro.core.batch.CellProcesses`) with the per-cell
  deadline; a child that raises, dies, or passes the deadline is a
  failed attempt of that ``kind`` (``error``, ``crash``, ``timeout``),
  and a child whose worker dies exits on its own;
* **renew** — while it waits on its children the worker loop renews
  every lease it holds at a third of the lease duration; a worker that
  dies or wedges stops renewing and its cells re-queue when the leases
  expire, and a cell killed at its deadline is no longer renewed;
* **checkpoint** — with ``checkpoint_every`` set, long cells record
  verifiable snapshots (:mod:`repro.service.checkpoint`) so a killed
  worker's successor resumes with a bit-identity proof;
* **drain** — SIGTERM/SIGINT request a graceful drain: the cells in
  flight finish, their outcomes are journaled, and the loop exits
  cleanly (exit 0) instead of abandoning leases.

The parent makes every journal and cache write; a failed attempt is
recorded with exponential backoff and the queue's retry budget.  This
loop is the repo's only job harness: :func:`~repro.core.batch.run_batch`
is one ``Worker`` draining a private queue.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.batch import (
    CacheArg,
    CellProcesses,
    ExperimentSpec,
    ProgressFn,
    batch_timeout,
    default_jobs,
    resolve_cache,
)
from repro.core.machine import RunResult
from repro.service.lease import SweepQueue, default_worker_id


@dataclass
class WorkerStats:
    """What one :meth:`Worker.run` call did."""

    executed: int = 0       #: cells actually simulated
    cached: int = 0         #: cells completed by cache dedupe
    failed: int = 0         #: failed attempts recorded (incl. terminal)
    drained: bool = False   #: loop exited on a drain request
    keys: List[str] = field(default_factory=list)
    #: result of every cell completed here (simulated or cache-deduped)
    results: Dict[str, RunResult] = field(default_factory=dict)


class Worker:
    """A leased worker loop over one sweep directory.

    Parameters
    ----------
    queue:
        The :class:`SweepQueue` (or a path-like to build one).
    cache:
        Result-cache argument (None = default on-disk cache, ``False``
        = none, or a :class:`~repro.core.cache.ResultCache`).  The cache is the dedupe layer;
        running a durable sweep without one (``False``) still converges
        but loses crash idempotence for *completed* cells.
    worker_id:
        Identity used in lease records (default ``host:pid``).
    poll_interval:
        Seconds to wait before retrying when nothing is claimable yet.
    checkpoint_every:
        When set, run cells under
        :func:`~repro.service.checkpoint.run_with_checkpoints` at this
        cadence (simulated pcycles).
    max_cells:
        Stop after completing/failing this many cells (None = run until
        the sweep settles or a drain is requested).
    progress:
        Optional ``progress(event, spec, key)`` callback; events are
        ``"claim" | "cached" | "done" | "fail"``.
    jobs:
        Cells in flight at once, each in its own child process
        (default: ``NWCACHE_JOBS`` or one per core).  The per-cell
        deadline is the ``NWCACHE_BATCH_TIMEOUT`` environment variable
        (unset means no deadline); a child past it is killed and the
        attempt fails.
    """

    def __init__(
        self,
        queue: "SweepQueue | str",
        cache: CacheArg = None,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
        checkpoint_every: Optional[float] = None,
        max_cells: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, SweepQueue) else SweepQueue(queue)
        self.cache = resolve_cache(cache)
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = float(poll_interval)
        self.checkpoint_every = checkpoint_every
        self.max_cells = max_cells
        self.progress = progress
        self.jobs = max(1, default_jobs() if jobs is None else int(jobs))
        self.timeout = batch_timeout()
        self.draining = False

    def __getstate__(self) -> dict:
        # what a spawned child unpickles to run _execute: the progress
        # callback stays in the parent (and need not be picklable)
        return {**self.__dict__, "progress": None}

    # ------------------------------------------------------------- signals
    def request_drain(self, signum=None, frame=None) -> None:
        """Finish the cells in flight, then exit the loop cleanly."""
        self.draining = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT become graceful drains (main thread only)."""
        signal.signal(signal.SIGTERM, self.request_drain)
        signal.signal(signal.SIGINT, self.request_drain)

    # ---------------------------------------------------------------- loop
    def run(self) -> WorkerStats:
        """Pull and run cells until the sweep settles, ``max_cells`` is
        reached, or a drain is requested.  Returns what happened."""
        stats = WorkerStats()
        renew_every = max(self.queue.lease_duration / 3.0, 0.05)
        with CellProcesses(self.timeout) as cells:
            next_renew = time.monotonic() + renew_every
            while True:
                idle = self._fill(stats, cells)
                if not cells:
                    if (
                        self.draining
                        or self._spent(stats)
                        or self.queue.state().settled
                    ):
                        break
                    # backed-off or leased-elsewhere cells exist: wait
                    # for them to become claimable (or for the sweep to
                    # settle)
                    time.sleep(self.poll_interval)
                    continue
                wait = next_renew - time.monotonic()
                if idle:
                    wait = min(wait, self.poll_interval)
                for (key, spec, attempt), kind, value in cells.wait(wait):
                    self._conclude(stats, key, spec, attempt, kind, value)
                    # Renewals and retries grow the journal forever;
                    # fold it down once it passes the queue's threshold
                    # so replay cost stays bounded over long sweeps.
                    self.queue.maybe_compact()
                if time.monotonic() >= next_renew:
                    for key, _spec, _attempt in cells.tags():
                        try:
                            self.queue.renew(key, self.worker_id)
                        except Exception:
                            # a failed renewal must never kill the cells
                            # in flight; the worst case is the lease
                            # expiring and the cell being claimed twice,
                            # which the cache dedupes
                            pass
                    next_renew = time.monotonic() + renew_every
        stats.drained = self.draining
        return stats

    def _spent(self, stats: WorkerStats) -> bool:
        return self.max_cells is not None and len(stats.keys) >= self.max_cells

    def _fill(self, stats: WorkerStats, cells: CellProcesses) -> bool:
        """Claim cells until ``jobs`` are in flight; True when a free
        slot found nothing claimable."""
        while len(cells) < self.jobs and not self.draining:
            if self._spent(stats):
                return False
            claim = self.queue.claim(self.worker_id)
            if claim is None:
                return True
            key, spec, attempt = claim
            stats.keys.append(key)
            self._emit("claim", spec, key)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                self.queue.complete(key, self.worker_id, attempt, executed=False)
                stats.cached += 1
                stats.results[key] = hit
                self._emit("cached", spec, key)
                self.queue.maybe_compact()
                continue
            cells.start((key, spec, attempt), self._execute, key, spec)
        return False

    # ---------------------------------------------------------------- cell
    def _conclude(
        self,
        stats: WorkerStats,
        key: str,
        spec: ExperimentSpec,
        attempt: int,
        kind: str,
        value: Any,
    ) -> None:
        """Journal one child's outcome (and cache its result)."""
        if kind != "ok":
            self.queue.fail(key, self.worker_id, attempt, value, kind=kind)
            stats.failed += 1
            self._emit("fail", spec, key)
            return
        if self.cache is not None:
            self.cache.put(key, value)
        from repro.service.checkpoint import clear_checkpoint

        clear_checkpoint(self.queue.checkpoint_path(key))
        self.queue.complete(key, self.worker_id, attempt, executed=True)
        stats.executed += 1
        stats.results[key] = value
        self._emit("done", spec, key)

    def _execute(self, key: str, spec: ExperimentSpec) -> RunResult:
        """Run one cell (in its child process)."""
        if self.checkpoint_every:
            from repro.service.checkpoint import (
                CheckpointDivergence,
                clear_checkpoint,
                run_with_checkpoints,
            )

            path = self.queue.checkpoint_path(key)
            try:
                return run_with_checkpoints(
                    spec, self.checkpoint_every, path
                )
            except CheckpointDivergence:
                # the recorded trajectory is unreproducible (code change
                # mid-sweep, damaged file): fall back to a clean re-run
                # rather than failing the cell
                clear_checkpoint(path)
                return run_with_checkpoints(
                    spec, self.checkpoint_every, path, resume=False
                )
        return spec.run()

    def _emit(self, event: str, spec: ExperimentSpec, key: str) -> None:
        if self.progress is not None:
            self.progress(event, spec, key)
