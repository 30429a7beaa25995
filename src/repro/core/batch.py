"""Batch execution: fan an experiment grid out over crash-safe workers.

The paper's evaluation is a grid of *independent* simulations (7 apps x 2
systems x up to 3 prefetchers, plus ablation sweeps).  Each cell is a
pure, deterministic function of its inputs, so cells can run in any
order, on any worker, with bit-identical results — per-cell seeding lives
entirely in :class:`~repro.config.SimConfig` (see
:class:`~repro.sim.rng.RngRegistry`).

:func:`run_batch` is the single entry point.  It is a thin client of the
durable sweep service: it submits the cells to a private, throwaway
:class:`~repro.service.lease.SweepQueue` and drains it with one
:class:`~repro.service.worker.Worker`, which consults the
content-addressed :class:`~repro.core.cache.ResultCache` first, runs
only the missing cells, stores the fresh results, and hands everything
back in spec order.  There is one job harness; this module holds the
pieces it is built from: the cell description (:class:`ExperimentSpec`),
the failure record (:class:`FailedSpec`) and the process-per-cell
primitive (:class:`CellProcesses`).

Crash safety
------------
A grid run must survive any single cell going bad.  Each cell runs in
its **own** child process with its own result pipe
(:class:`CellProcesses`); a child that raises, exceeds the per-cell
deadline (``NWCACHE_BATCH_TIMEOUT`` seconds), or dies outright
(segfault, OOM-kill) is retried once and, if it fails again, recorded
as a structured :class:`FailedSpec` in its slot — every *other* cell's
result is still returned.  Callers that need all-or-nothing semantics
can pass results through :func:`raise_failures`.

::

    from repro.core.batch import ExperimentSpec, run_batch
    specs = [ExperimentSpec("sor", sys, "optimal", data_scale=0.2)
             for sys in ("standard", "nwcache")]
    std, nwc = run_batch(specs, jobs=4)
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time
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

#: Type accepted by ``cache`` parameters: an explicit cache,
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
    #: ``experiment_config`` overrides (SimConfig field -> value) applied
    #: on top of the scaled Table 1 machine — part of key()
    config: Dict[str, Any] = field(default_factory=dict)
    audit: bool = False
    #: fault-injection plan (spec string, or None to defer to the
    #: NWCACHE_FAULTS environment variable) — part of key(); a FaultPlan
    #: object runs through run() but has no journal form, so run_batch
    #: rejects it
    faults: Any = None
    app_params: Dict[str, Any] = field(default_factory=dict)

    def _min_free(self) -> int:
        if self.min_free is None:
            return BEST_MIN_FREE[(self.system, self.prefetch)]
        return self.min_free

    def _cfg(self) -> Optional[SimConfig]:
        """The explicit ``cfg`` handed to ``run_experiment`` (None: its
        default machine, when there are no overrides)."""
        if not self.config:
            return None
        return experiment_config(
            self.data_scale, min_free=self._min_free(), **self.config
        )

    def resolved_config(self) -> SimConfig:
        """The exact SimConfig ``run_experiment`` would simulate with."""
        min_free = self._min_free()
        cfg = self._cfg()
        if cfg is None:
            cfg = experiment_config(self.data_scale, min_free=min_free)
        else:
            cfg = cfg.replace(
                min_free_frames=scaled_min_free(
                    min_free, self.data_scale, cfg.frames_per_node
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
            cfg=self._cfg(),
            drain_policy=self.drain_policy,
            audit=self.audit or None,
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

#: ``progress(event, spec, key)``; events are
#: ``"claim" | "cached" | "done" | "fail"``
ProgressFn = Callable[[str, ExperimentSpec, str], None]


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

    The process-per-cell primitive the
    :class:`~repro.service.worker.Worker` (and so :func:`run_batch`)
    runs every cell through: :meth:`start` a cell, then collect
    ``(tag, kind, value)`` outcomes from :meth:`wait`.  Unlike a
    ``Pool``, one child dying or hanging cannot poison the others:
    each cell owns its process and its result pipe.  Children are
    forked where the platform allows (spawned elsewhere, which needs a
    picklable ``fn``), exit on their own if this process dies, and are
    killed when the context exits.
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
    """Normalize a ``cache`` argument (None -> default cache)."""
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


def batch_timeout() -> Optional[float]:
    """Per-cell wall-clock deadline from ``NWCACHE_BATCH_TIMEOUT`` (s).

    Unset or empty disables the deadline.  Zero, negative, NaN/inf, and
    non-numeric values are configuration mistakes, not requests to
    disable it, so each raises a ``ValueError`` naming the variable.
    """
    env = os.environ.get("NWCACHE_BATCH_TIMEOUT")
    if env is None or not env.strip():
        return None
    try:
        t = float(env)
    except ValueError:
        raise ValueError(
            f"NWCACHE_BATCH_TIMEOUT must be a number of seconds, got {env!r}"
        ) from None
    if not math.isfinite(t) or t <= 0:
        raise ValueError(
            f"NWCACHE_BATCH_TIMEOUT must be a positive finite number of "
            f"seconds, got {env!r}; unset it to disable the deadline"
        )
    return t


#: attempts every run_batch cell gets before its slot becomes a
#: FailedSpec (the first try plus one immediate retry)
BATCH_ATTEMPTS = 2


def run_batch(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[ProgressFn] = None,
) -> List[BatchResult]:
    """Run a grid of experiment cells, cached, parallel, and crash-safe.

    The cells go through a private, throwaway
    :class:`~repro.service.lease.SweepQueue` drained by one
    :class:`~repro.service.worker.Worker`: the durable sweep's harness,
    with :data:`BATCH_ATTEMPTS` attempts per cell and no backoff.

    Parameters
    ----------
    specs:
        The cells to evaluate; results come back in the same order.
        Identical specs share one cell and are simulated once.
    jobs:
        Cells in flight at once, each in its own child process
        (default: ``NWCACHE_JOBS`` env or CPU count).  ``1`` runs one
        child at a time, with the same deadline and crash isolation.
    cache:
        ``None`` (default) uses the on-disk :class:`ResultCache` at its
        environment-resolved location; ``False`` disables caching; or
        pass an explicit :class:`ResultCache`.
    progress:
        Optional callback ``progress(event, spec, key)``, as
        :class:`~repro.service.worker.Worker` takes it; events are
        ``"claim" | "cached" | "done" | "fail"``.

    The per-cell deadline is the ``NWCACHE_BATCH_TIMEOUT`` environment
    variable (unset means none); a child past it is killed and the
    attempt counts as a ``"timeout"`` failure.

    Returns
    -------
    One entry per spec, in spec order: the :class:`RunResult`, or a
    :class:`FailedSpec` (carrying that spec) if every attempt at the
    cell failed.  A bad cell never takes down the batch — see
    :func:`raise_failures` for all-or-nothing callers.
    """
    from repro.service import SweepQueue, Worker  # it imports this module

    specs = list(specs)
    with tempfile.TemporaryDirectory(prefix="nwcache-batch-") as root:
        queue = SweepQueue(
            root, retry_budget=BATCH_ATTEMPTS, backoff_base=0.0
        )
        keys = queue.submit(specs)
        stats = Worker(queue, cache=cache, progress=progress, jobs=jobs).run()
        state = queue.state()
    return [
        stats.results.get(key)
        or dataclasses.replace(state.cells[key].to_failed_spec(), spec=spec)
        for spec, key in zip(specs, keys)
    ]


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
