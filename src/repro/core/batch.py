"""Batch execution: fan an experiment grid out over crash-safe workers.

The paper's evaluation is a grid of *independent* simulations (7 apps x 2
systems x up to 3 prefetchers, plus ablation sweeps).  Each cell is a
pure, deterministic function of its inputs, so cells can run in any
order, on any worker, with bit-identical results — per-cell seeding lives
entirely in :class:`~repro.config.SimConfig` (see
:class:`~repro.sim.rng.RngRegistry`).

:func:`run_batch` is the single entry point: it consults the
content-addressed :class:`~repro.core.cache.ResultCache` first, runs only
the missing cells (in parallel when ``jobs > 1``), stores the fresh
results, and returns everything in spec order.

Crash safety
------------
A grid run must survive any single cell going bad.  Each parallel cell
runs in its **own** worker process with its own result pipe
(:class:`CellProcesses`, which the durable sweep
:class:`~repro.service.worker.Worker` runs its cells through too); a
worker that raises, exceeds the per-cell ``timeout`` (default:
``NWCACHE_BATCH_TIMEOUT`` seconds), or dies outright (segfault,
OOM-kill) is retried once and, if it fails again, recorded as a
structured :class:`FailedSpec` in its slot — every *other* cell's result
is still returned.  Callers that need all-or-nothing semantics can pass
results through :func:`raise_failures`.

::

    from repro.core.batch import ExperimentSpec, run_batch
    specs = [ExperimentSpec("sor", sys, "optimal", data_scale=0.2)
             for sys in ("standard", "nwcache")]
    std, nwc = run_batch(specs, jobs=4)
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import SimConfig
from repro.core.cache import ResultCache, cache_key
from repro.core.machine import RunResult, SYSTEM_NWCACHE, SYSTEM_STANDARD
from repro.core.runner import (
    BEST_MIN_FREE,
    env_fault_spec,
    experiment_config,
    run_experiment,
    scaled_min_free,
)

#: Type accepted by run_batch's ``cache`` parameter: an explicit cache,
#: ``None`` for the default on-disk cache, or ``False`` to disable caching.
CacheArg = Union[ResultCache, None, bool]


@dataclass
class ExperimentSpec:
    """One cell of the evaluation grid (the inputs of ``run_experiment``)."""

    app: str
    system: str = SYSTEM_STANDARD
    prefetch: str = "optimal"
    data_scale: float = 1.0
    min_free: Optional[int] = None
    drain_policy: str = "most-loaded"
    cfg: Optional[SimConfig] = None
    audit: bool = False
    #: trace-fed CPU fast path (trajectory-neutral, so deliberately NOT
    #: part of key(): generator and compiled runs are interchangeable)
    compiled_traces: Optional[bool] = None
    #: fault-injection plan (FaultPlan, spec string, or None to defer to
    #: the NWCACHE_FAULTS environment variable) — part of key()
    faults: Any = None
    app_params: Dict[str, Any] = field(default_factory=dict)

    def resolved_config(self) -> SimConfig:
        """The exact SimConfig ``run_experiment`` would simulate with."""
        min_free = self.min_free
        if min_free is None:
            min_free = BEST_MIN_FREE[(self.system, self.prefetch)]
        if self.cfg is None:
            cfg = experiment_config(self.data_scale, min_free=min_free)
        else:
            cfg = self.cfg.replace(
                min_free_frames=scaled_min_free(
                    min_free, self.data_scale, self.cfg.frames_per_node
                )
            )
        if self.audit and not cfg.audit:
            cfg = cfg.replace(audit=True)
        # Mirror run_experiment's fault resolution (spec field, then the
        # environment) so key() always covers the plan actually simulated.
        faults = self.faults
        if faults is None:
            faults = env_fault_spec()
        if faults is not None:
            cfg = cfg.replace(faults=faults)
        return cfg

    def key(self) -> str:
        """Content hash of every input that determines this cell's result."""
        if not isinstance(self.app, str):
            raise TypeError(
                f"cache keys need a string app name, got {self.app!r}; "
                "run Workload instances through run_experiment directly"
            )
        return cache_key(
            self.resolved_config(),
            self.app,
            self.system,
            self.prefetch,
            drain_policy=self.drain_policy,
            data_scale=self.data_scale,
            app_params=self.app_params,
        )

    def run(self) -> RunResult:
        """Execute this cell serially (the worker function)."""
        return run_experiment(
            self.app,
            self.system,
            self.prefetch,
            data_scale=self.data_scale,
            min_free=self.min_free,
            cfg=self.cfg,
            drain_policy=self.drain_policy,
            audit=self.audit or None,
            compiled_traces=self.compiled_traces,
            faults=self.faults,
            **self.app_params,
        )


@dataclass
class FailedSpec:
    """A grid cell whose every attempt failed; fills the cell's slot.

    ``kind`` distinguishes how the last attempt died: ``"error"`` (the
    worker raised), ``"timeout"`` (exceeded the per-cell deadline and was
    terminated), or ``"crash"`` (the worker process died without
    reporting — segfault, OOM-kill, ``os._exit``).
    """

    spec: ExperimentSpec
    kind: str
    error: str
    attempts: int

    @property
    def retries(self) -> int:
        """Re-attempts spent beyond the first try (``attempts - 1``)."""
        return max(0, self.attempts - 1)

    def __bool__(self) -> bool:
        # Failed slots are falsy so ``isinstance``-free call sites can
        # filter with ``if res:`` — a RunResult is always truthy.
        return False


#: What fills one slot of a batch result list.
BatchResult = Union[RunResult, FailedSpec]

ProgressFn = Callable[["ExperimentSpec", "BatchResult", bool], None]


def raise_failures(results: Sequence[BatchResult]) -> List[RunResult]:
    """Return ``results`` unchanged unless any slot failed.

    All-or-nothing adapter for callers (sweeps, table builders) that
    cannot tolerate holes: raises one RuntimeError naming every failed
    cell instead of letting a FailedSpec masquerade as a result.
    """
    failures = [r for r in results if isinstance(r, FailedSpec)]
    if failures:
        lines = "; ".join(
            f"{f.spec.app}/{f.spec.system}/{f.spec.prefetch}: "
            f"{f.kind} after {f.attempts} attempt(s) ({f.error})"
            for f in failures
        )
        raise RuntimeError(
            f"{len(failures)} batch cell(s) failed: {lines}"
        )
    return list(results)  # type: ignore[arg-type]  # no FailedSpec left


def _run_spec(spec: ExperimentSpec) -> RunResult:
    """Module-level worker target (must be picklable by name)."""
    return spec.run()


#: seconds between a child's checks that the process that forked it is
#: still alive
ORPHAN_POLL_S = 0.2


def _exit_when_orphaned(parent_pid: int) -> None:
    """Child-side watchdog: exit as soon as the parent process is gone.

    A child whose parent was SIGKILLed is re-parented, so its
    ``getppid()`` changes; without this it would keep running (and
    appending to its cell's checkpoint journal) while a successor
    worker resumes the same cell.
    """
    while os.getppid() == parent_pid:
        time.sleep(ORPHAN_POLL_S)
    os._exit(1)


def _child_entry(
    parent_pid: int, conn: Any, fn: Callable[..., Any], args: Tuple[Any, ...]
) -> None:
    """Child-process entry: run ``fn(*args)``, send the outcome, exit.

    Sends ``("ok", value)`` or ``("error", message)``; a child that dies
    before sending anything is detected by the parent as EOF on the
    pipe and classified as a crash.  The parent decides the child's
    fate: SIGTERM kills it (a signal handler inherited from the parent
    must not swallow it) and SIGINT is ignored (a terminal's Ctrl-C
    reaches the whole process group; the parent drains or kills).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True
    ).start()
    try:
        conn.send(("ok", fn(*args)))
    except BaseException as exc:  # noqa: BLE001 - report, don't judge
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


#: One finished child: ``(tag, kind, value)``.  ``kind`` is ``"ok"``
#: (``value`` is what the function returned), or ``"error"`` (it
#: raised), ``"crash"`` (the child died without reporting) or
#: ``"timeout"`` (it passed its deadline and was killed), with
#: ``value`` the error message.
Outcome = Tuple[Any, str, Any]


class CellProcesses:
    """Run cells one child process each, with a per-cell deadline.

    The process-per-cell primitive under both :func:`run_batch` and
    the durable sweep :class:`~repro.service.worker.Worker`.  Unlike a
    ``Pool``, one child dying or hanging cannot poison the others:
    each cell owns its process and its result pipe.  Children are
    forked where the platform allows (spawned elsewhere, which needs a
    picklable ``fn``), exit on their own if this process dies, and are
    killed when the context exits.

    ::

        with CellProcesses(timeout=60.0) as cells:
            cells.start(tag, fn, arg)
            for tag, kind, value in cells.wait():
                ...
    """

    def __init__(self, timeout: Optional[float] = None) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.timeout = timeout
        #: read end of each child's pipe -> (tag, process, deadline)
        self._running: Dict[Any, Tuple[Any, Any, Optional[float]]] = {}

    def __len__(self) -> int:
        return len(self._running)

    def tags(self) -> List[Any]:
        """The tags of every cell still in flight."""
        return [tag for tag, _proc, _deadline in self._running.values()]

    def start(self, tag: Any, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` in a new child; its outcome carries ``tag``."""
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_entry,
            args=(os.getpid(), send, fn, args),
            daemon=True,
        )
        proc.start()
        send.close()  # the parent keeps only the read end
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        self._running[recv] = (tag, proc, deadline)

    def wait(self, max_wait: Optional[float] = None) -> List[Outcome]:
        """Block until a child reports, dies or passes its deadline, or
        ``max_wait`` seconds pass; return the cells that finished."""
        if not self._running:
            return []
        waits = [
            d - time.monotonic()
            for _tag, _proc, d in self._running.values()
            if d is not None
        ]
        if max_wait is not None:
            waits.append(max_wait)
        ready = multiprocessing.connection.wait(
            list(self._running), timeout=max(0.0, min(waits)) if waits else None
        )
        out: List[Outcome] = []
        for conn in ready:
            tag, proc, _deadline = self._running.pop(conn)
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            conn.close()
            proc.join()
            if msg is None:
                msg = (
                    "crash",
                    f"worker died without reporting (exitcode {proc.exitcode})",
                )
            out.append((tag, msg[0], msg[1]))
        now = time.monotonic()
        for conn, (tag, proc, deadline) in list(self._running.items()):
            if deadline is not None and deadline <= now:
                del self._running[conn]
                proc.kill()
                proc.join()
                conn.close()
                out.append(
                    (tag, "timeout", f"exceeded {self.timeout:g}s deadline")
                )
        return out

    def close(self) -> None:
        """Kill every child still in flight."""
        while self._running:
            conn, (_tag, proc, _deadline) = self._running.popitem()
            proc.kill()
            proc.join()
            conn.close()

    def __enter__(self) -> "CellProcesses":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def resolve_cache(cache: CacheArg) -> Optional[ResultCache]:
    """Normalize run_batch's ``cache`` argument (None -> default cache)."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return ResultCache.default()
    return cache


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified: one per available core."""
    env = os.environ.get("NWCACHE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"NWCACHE_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def validate_timeout(value: Any, source: str = "timeout") -> float:
    """A per-cell deadline must be a positive finite number of seconds.

    Zero, negative, NaN/inf, and non-numeric values are configuration
    mistakes, not requests to disable the deadline — disabling is
    explicit (unset the environment variable, or pass ``None``) — so
    every one of them raises a ``ValueError`` naming the offender.
    """
    try:
        t = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number of seconds, got {value!r}"
        ) from None
    if not math.isfinite(t) or t <= 0:
        raise ValueError(
            f"{source} must be a positive finite number of seconds, got "
            f"{value!r}; unset it (or pass None) to disable the deadline"
        )
    return t


def batch_timeout() -> Optional[float]:
    """Per-cell wall-clock deadline from ``NWCACHE_BATCH_TIMEOUT`` (s).

    Unset or empty disables the deadline; anything else must be a
    positive finite number (see :func:`validate_timeout`).
    """
    env = os.environ.get("NWCACHE_BATCH_TIMEOUT")
    if env is None or not env.strip():
        return None
    return validate_timeout(env, "NWCACHE_BATCH_TIMEOUT")


@dataclass
class _Cell:
    """Scheduler bookkeeping for one cache-miss cell."""

    index: int
    spec: ExperimentSpec
    key: Optional[str]
    attempts: int = 0


def _run_misses_parallel(
    cells: List[_Cell],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    finish: Callable[[_Cell, BatchResult], None],
) -> None:
    """Up to ``jobs`` cells in flight, each in its own deadline-bounded
    child; failed attempts re-queue until ``retries`` are spent."""
    pending = deque(cells)
    with CellProcesses(timeout) as running:
        while pending or running:
            while pending and len(running) < jobs:
                cell = pending.popleft()
                cell.attempts += 1
                running.start(cell, _run_spec, cell.spec)
            for cell, kind, value in running.wait():
                if kind == "ok":
                    finish(cell, value)
                    continue
                if cell.attempts <= retries:
                    pending.append(cell)
                else:
                    finish(
                        cell,
                        FailedSpec(cell.spec, kind, value, attempts=cell.attempts),
                    )


def _run_misses_serial(
    cells: List[_Cell],
    retries: int,
    finish: Callable[[_Cell, BatchResult], None],
) -> None:
    """In-process execution with the same retry/FailedSpec contract.

    No per-cell deadline here: a timeout cannot be enforced on the
    calling process itself (use ``jobs > 1`` for that).
    """
    for cell in cells:
        outcome: Optional[BatchResult] = None
        while outcome is None:
            cell.attempts += 1
            try:
                outcome = cell.spec.run()
            except Exception as exc:  # noqa: BLE001 - confine to the cell
                if cell.attempts <= retries:
                    continue
                outcome = FailedSpec(
                    cell.spec,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    attempts=cell.attempts,
                )
        finish(cell, outcome)


def run_batch(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[ProgressFn] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> List[BatchResult]:
    """Run a grid of experiment cells, cached, parallel, and crash-safe.

    Parameters
    ----------
    specs:
        The cells to evaluate; results come back in the same order.
    jobs:
        Worker processes (default: ``NWCACHE_JOBS`` env or CPU count).
        ``1`` forces in-process serial execution.
    cache:
        ``None`` (default) uses the on-disk :class:`ResultCache` at its
        environment-resolved location; ``False`` disables caching; or
        pass an explicit :class:`ResultCache`.
    progress:
        Optional callback ``progress(spec, result, was_cached)`` invoked
        as each cell completes (cached cells first, then completion
        order); ``result`` may be a :class:`FailedSpec`.
    timeout:
        Per-cell wall-clock deadline in seconds for parallel runs
        (default: the ``NWCACHE_BATCH_TIMEOUT`` environment variable;
        unset/empty means no deadline).  Must be positive and finite —
        zero or negative values raise ``ValueError`` rather than
        silently disabling the deadline.  A worker past its deadline is
        terminated and the attempt counts as a ``"timeout"`` failure.
    retries:
        How many times a failed cell is re-attempted before its slot
        becomes a :class:`FailedSpec` (default 1: every cell gets up to
        two attempts).  Must be a non-negative integer.

    Returns
    -------
    One entry per spec, in spec order: the :class:`RunResult`, or a
    :class:`FailedSpec` if every attempt at that cell failed.  A bad
    cell never takes down the batch — see :func:`raise_failures` for
    all-or-nothing callers.
    """
    specs = list(specs)
    store = resolve_cache(cache)
    if timeout is None:
        timeout = batch_timeout()
    else:
        timeout = validate_timeout(timeout, "timeout")
    if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
        raise ValueError(
            f"retries must be a non-negative integer, got {retries!r}"
        )
    results: List[Optional[BatchResult]] = [None] * len(specs)

    misses: List[_Cell] = []
    for i, spec in enumerate(specs):
        key = spec.key() if store is not None else None
        hit = store.get(key) if store is not None else None
        if hit is not None:
            results[i] = hit
            if progress is not None:
                progress(spec, hit, True)
        else:
            misses.append(_Cell(i, spec, key))

    if misses:
        def finish(cell: _Cell, res: BatchResult) -> None:
            results[cell.index] = res
            if (
                store is not None
                and cell.key is not None
                and isinstance(res, RunResult)
            ):
                store.put(cell.key, res)
            if progress is not None:
                progress(cell.spec, res, False)

        if jobs is None:
            jobs = default_jobs()
        if jobs <= 1:
            # In-process; no worker isolation, so no timeout enforcement.
            _run_misses_serial(misses, retries, finish)
        else:
            # Requested parallelism keeps process isolation (crash
            # confinement + deadlines) even when only one cell missed.
            _run_misses_parallel(
                misses, min(jobs, len(misses)), timeout, retries, finish
            )

    return results  # type: ignore[return-value]  # every slot is filled


def grid_specs(
    apps: Sequence[str],
    systems: Sequence[str] = (SYSTEM_STANDARD, SYSTEM_NWCACHE),
    prefetches: Sequence[str] = ("optimal",),
    data_scale: float = 1.0,
    **kwargs: Any,
) -> List[ExperimentSpec]:
    """The full cross product of (app, system, prefetch) cells."""
    return [
        ExperimentSpec(app, system, prefetch, data_scale=data_scale, **kwargs)
        for app in apps
        for system in systems
        for prefetch in prefetches
    ]


def run_pairs_batch(
    apps: Sequence[str],
    prefetch: str = "optimal",
    data_scale: float = 1.0,
    jobs: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[ProgressFn] = None,
    **kwargs: Any,
) -> Dict[str, Tuple[BatchResult, BatchResult]]:
    """(standard, nwcache) result pairs for each app, via one batch.

    A cell that failed occupies its half of the pair as a
    :class:`FailedSpec`; the other half is still a real result.
    """
    specs = grid_specs(
        apps, prefetches=(prefetch,), data_scale=data_scale, **kwargs
    )
    results = run_batch(specs, jobs=jobs, cache=cache, progress=progress)
    out: Dict[str, Tuple[BatchResult, BatchResult]] = {}
    by_cell = {
        (s.app, s.system): r for s, r in zip(specs, results)
    }
    for app in apps:
        out[app] = (
            by_cell[(app, SYSTEM_STANDARD)],
            by_cell[(app, SYSTEM_NWCACHE)],
        )
    return out
