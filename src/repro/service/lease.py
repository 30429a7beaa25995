"""Sweep state machine and the on-disk leased work queue.

State lives in a :class:`~repro.service.journal.Journal`; this module
gives the records meaning.  Each cell (an
:class:`~repro.core.batch.ExperimentSpec`, identified by its
content-addressed cache key) moves through::

    pending --claim--> leased --complete--> done
       ^                 |
       |                 +--fail (attempt <= budget, backoff)--+
       +--lease expiry---+                                     |
       +-------------------------------------------------------+
                         +--fail (budget exhausted)--> failed   (terminal)

Replay is **idempotent and order-tolerant** by construction: every
transition function is monotone (``done`` is absorbing, attempts only
grow, lease arbitration orders by ``(attempt, expires)``, per-attempt
accounting lives in sets), so applying a journal twice — or a shuffled
merge of two workers' records, or a crash-truncated prefix — never
double-counts work and never resurrects a finished cell.  The property
suite (``tests/property/test_journal_replay.py``) pins exactly this.

Specs cross the journal as JSON (:func:`spec_to_dict` /
:func:`spec_from_dict`).  Environment-dependent inputs that change
*results* — the ``NWCACHE_FAULTS`` default — are resolved at submit
time, so every worker runs the cell the submitter keyed, regardless of
its own environment.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.batch import ExperimentSpec, FailedSpec
from repro.core.runner import env_fault_spec
from repro.service.journal import Journal, locked

#: cell states
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: journal file name inside a sweep directory
JOURNAL_NAME = "journal.nwj"

#: spec fields carried through the journal (all of them: specs are
#: declarative, so their JSON form is the whole cell)
_SPEC_FIELDS = (
    "app",
    "system",
    "prefetch",
    "data_scale",
    "min_free",
    "drain_policy",
    "config",
    "audit",
    "faults",
    "app_params",
)


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """JSON form of a spec, with environment defaults resolved.

    Raises ``ValueError`` for specs the journal cannot carry faithfully:
    a non-string fault plan, or non-JSON ``config`` or ``app_params``.
    """
    if spec.faults is not None and not isinstance(spec.faults, str):
        raise ValueError(
            f"service specs carry fault plans as spec strings, "
            f"got {type(spec.faults).__name__}"
        )
    d = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    if d["faults"] is None:
        # resolve the submitter's env default so every worker simulates
        # (and keys) the same plan
        d["faults"] = env_fault_spec()
    for name in ("config", "app_params"):
        try:
            json.dumps(d[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} must be JSON-encodable: {exc}") from exc
    return d


def spec_from_dict(d: Dict[str, Any]) -> ExperimentSpec:
    """Rebuild a spec from its journal form (unknown keys rejected)."""
    unknown = set(d) - set(_SPEC_FIELDS)
    if unknown:
        raise ValueError(f"unknown spec fields {sorted(unknown)}")
    return ExperimentSpec(**d)


@dataclass
class SpecState:
    """Replay-derived state of one cell."""

    key: str
    spec: Dict[str, Any]
    status: str = PENDING
    worker: Optional[str] = None
    lease_expires: float = 0.0
    #: attempt number of the currently live lease (meaningful only
    #: while ``status == LEASED``)
    lease_attempt: int = 0
    #: highest attempt number any lease/fail record has mentioned
    attempts: int = 0
    #: earliest wall-clock time the cell may be re-leased (backoff)
    not_before: float = 0.0
    last_error: str = ""
    #: how the last failed attempt died: ``error``, ``crash`` or ``timeout``
    last_kind: str = "error"
    #: (worker, attempt) marks — sets make duplicate records no-ops
    done_marks: Set[Tuple[str, int]] = field(default_factory=set)
    executed_marks: Set[Tuple[str, int]] = field(default_factory=set)
    fail_marks: Set[Tuple[str, int]] = field(default_factory=set)

    @property
    def executed_runs(self) -> int:
        """How many distinct attempts ran this cell to completion."""
        return len(self.executed_marks)

    def to_experiment_spec(self) -> ExperimentSpec:
        return spec_from_dict(self.spec)

    def to_failed_spec(self) -> FailedSpec:
        """The terminal-failure view of this cell (status ``failed``)."""
        # unknown fields are dropped: a cell that failed for carrying
        # them (see SweepQueue.claim) still reports what it was
        known = {k: v for k, v in self.spec.items() if k in _SPEC_FIELDS}
        return FailedSpec(
            ExperimentSpec(**known),
            kind=self.last_kind,
            error=self.last_error or "retry budget exhausted",
            attempts=self.attempts,
        )


class SweepState:
    """The state machine: fold journal records into per-cell states."""

    def __init__(self) -> None:
        self.cells: Dict[str, SpecState] = {}
        self.order: List[str] = []

    # ------------------------------------------------------------ folding
    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one record in.  Idempotent; unknown types are ignored
        (forward compatibility), records for unknown keys are ignored
        (a truncated journal may have lost the submit — the cell then
        simply does not exist yet).  ``snapshot`` records, written by
        the journal compaction of older versions, are refused: each
        stood for a cell's whole history, so skipping one would drop
        the cell."""
        rtype = rec.get("type")
        if rtype == "submit":
            key = rec["key"]
            if key not in self.cells:
                self.cells[key] = SpecState(key=key, spec=rec["spec"])
                self.order.append(key)
            return
        if rtype == "snapshot":
            raise ValueError(
                "journal holds a 'snapshot' record, written by the journal "
                "compaction of an older version; this version cannot "
                "replay compacted journals (resubmit the sweep in a new "
                "directory)"
            )
        cell = self.cells.get(rec.get("key"))
        if cell is None:
            return
        if rtype == "lease":
            self._apply_lease(cell, rec)
        elif rtype == "renew":
            if (
                cell.status == LEASED
                and cell.worker == rec["worker"]
            ):
                cell.lease_expires = max(
                    cell.lease_expires, float(rec["expires"])
                )
        elif rtype == "done":
            mark = (rec["worker"], int(rec["attempt"]))
            cell.done_marks.add(mark)
            if rec.get("executed", False):
                cell.executed_marks.add(mark)
            cell.status = DONE  # absorbing
            cell.worker = None
        elif rtype == "fail":
            self._apply_fail(cell, rec)
        elif rtype == "requeue":
            # cancels exactly the lease it names — a stale requeue
            # (issued before a newer lease) is a no-op
            if (
                cell.status == LEASED
                and cell.worker == rec["worker"]
                and cell.lease_expires == float(rec["expires"])
            ):
                cell.status = PENDING
                cell.worker = None

    def _apply_lease(self, cell: SpecState, rec: Dict[str, Any]) -> None:
        attempt = int(rec["attempt"])
        expires = float(rec["expires"])
        cell.attempts = max(cell.attempts, attempt)
        if cell.status in (DONE, FAILED):
            return
        concluded = max(
            (a for _, a in cell.fail_marks | cell.done_marks), default=0
        )
        if attempt <= concluded:
            # some attempt >= this one already concluded (attempt numbers
            # only increase); a re-delivered lease record must not
            # resurrect a superseded attempt
            return
        # arbitration: the newest lease wins; ties (same attempt) go to
        # the later expiry so a duplicated record is a no-op
        current = (cell.lease_attempt if cell.status == LEASED else 0,
                   cell.lease_expires if cell.status == LEASED else 0.0)
        if (attempt, expires) >= current:
            cell.status = LEASED
            cell.worker = rec["worker"]
            cell.lease_attempt = attempt
            cell.lease_expires = expires

    def _apply_fail(self, cell: SpecState, rec: Dict[str, Any]) -> None:
        worker, attempt = rec["worker"], int(rec["attempt"])
        mark = (worker, attempt)
        if mark in cell.fail_marks:
            return
        cell.fail_marks.add(mark)
        cell.attempts = max(cell.attempts, attempt)
        cell.last_error = str(rec.get("error", ""))
        cell.last_kind = str(rec.get("kind", "error"))
        if cell.status == DONE:
            return
        if rec.get("terminal", False):
            cell.status = FAILED
            cell.worker = None
            return
        cell.not_before = max(cell.not_before, float(rec.get("not_before", 0.0)))
        # release the live lease only if it is this attempt's (or an
        # older one the failure supersedes); a *newer* lease — another
        # worker already claimed the retry — stays in place
        if cell.status == LEASED and cell.lease_attempt <= attempt:
            cell.status = PENDING
            cell.worker = None

    # ------------------------------------------------------------ queries
    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for cell in self.cells.values():
            out[cell.status] += 1
        return out

    @property
    def settled(self) -> bool:
        """No runnable work left: every cell is done or terminally failed."""
        return all(
            c.status in (DONE, FAILED) for c in self.cells.values()
        )

    def expired_leases(self, now: float) -> List[SpecState]:
        return [
            c
            for c in self.cells.values()
            if c.status == LEASED and c.lease_expires <= now
        ]

    def claimable(self, now: float) -> Optional[SpecState]:
        """First submitted cell that is pending and past its backoff."""
        for key in self.order:
            cell = self.cells[key]
            if cell.status == PENDING and cell.not_before <= now:
                return cell
        return None


def replay_state(journal: Journal) -> SweepState:
    """Fold a journal into a :class:`SweepState`."""
    state = SweepState()
    for rec in journal.replay():
        state.apply(rec)
    return state


def default_worker_id() -> str:
    """``host:pid`` — unique enough across a shared directory."""
    return f"{socket.gethostname()}:{os.getpid()}"


class SweepQueue:
    """The durable work queue over a shared directory.

    All mutation goes through read-decide-append critical sections under
    the journal's cross-process lock, so any number of workers — and the
    submitter, and ``repro serve`` — can share ``root`` concurrently.
    Each queue folds the journal incrementally: a critical section
    applies only the records appended since the last one (other
    workers' included), so a sweep's queue work is linear in its
    journal, not quadratic.

    Parameters
    ----------
    root:
        The sweep directory (created on first use).  Everything the
        sweep needs to survive a crash lives here: the journal and the
        per-cell checkpoint files.  Results go to the (separately
        configured) content-addressed result cache.
    lease_duration:
        Seconds a claim is valid without renewal.  A worker renews its
        leases at a third of this; a worker that dies or wedges past it
        has its cells re-queued by whoever looks next.
    retry_budget:
        Total attempts a cell may consume before it becomes a terminal
        :class:`~repro.core.batch.FailedSpec` (default 3).
    backoff_base:
        Base of the exponential re-queue backoff: attempt ``n`` becomes
        claimable ``backoff_base * 2**(n-1)`` seconds after it failed.
    """

    def __init__(
        self,
        root: "Path | str",
        lease_duration: float = 60.0,
        retry_budget: int = 3,
        backoff_base: float = 2.0,
    ) -> None:
        if lease_duration <= 0:
            raise ValueError(
                f"lease_duration must be positive, got {lease_duration}"
            )
        if retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
        self.root = Path(root)
        self.journal = Journal(self.root / JOURNAL_NAME)
        self.lease_duration = float(lease_duration)
        self.retry_budget = int(retry_budget)
        self.backoff_base = float(backoff_base)
        #: the journal folded up to byte ``_offset`` (see :meth:`_folded`)
        self._state = SweepState()
        self._offset = 0

    # ---------------------------------------------------------------- state
    def state(self) -> SweepState:
        """Fresh replay of the journal (the journal is the only truth)."""
        return replay_state(self.journal)

    @contextmanager
    def _folded(self) -> Iterator[SweepState]:
        """Hold the journal lock with the folded state caught up on
        every record appended since the last call.

        The journal only grows by whole records, so the records past
        ``_offset`` are exactly the ones not folded yet.  Records the
        caller applies must reach the journal through :meth:`_append`
        before the block ends; if anything raises, the fold starts over
        from the file next time.
        """
        with locked(self.journal.lock_path):
            try:
                records, self._offset = self.journal.read_from(self._offset)
                for rec in records:
                    self._state.apply(rec)
                yield self._state
            except BaseException:
                self._state, self._offset = SweepState(), 0
                raise

    def _append(self, records: List[Dict[str, Any]]) -> None:
        """Journal records already applied to the folded state (inside
        :meth:`_folded`)."""
        if records:
            self._offset = self.journal._append_unlocked(records)

    def checkpoint_path(self, key: str) -> Path:
        return self.root / "checkpoints" / f"{key}.ckpt"

    # --------------------------------------------------------------- submit
    def submit(
        self, specs: Sequence["ExperimentSpec | Dict[str, Any]"]
    ) -> List[str]:
        """Append submit records for every not-yet-known spec.

        Returns the cell keys in spec order (already-submitted cells
        return their existing key; submission is idempotent).
        """
        prepared: List[Tuple[str, Dict[str, Any]]] = []
        keys: List[str] = []
        for spec in specs:
            if isinstance(spec, dict):
                spec = spec_from_dict(spec)
            d = spec_to_dict(spec)
            # key the *resolved* spec so every worker agrees with it
            key = spec_from_dict(d).key()
            keys.append(key)
            prepared.append((key, d))
        with self._folded() as state:
            fresh = []
            for key, d in prepared:
                # applying as we go dedupes within the submission too
                if key not in state.cells:
                    rec = {"type": "submit", "key": key, "spec": d}
                    state.apply(rec)
                    fresh.append(rec)
            self._append(fresh)
        return keys

    # ---------------------------------------------------------------- claim
    def claim(
        self,
        worker: str,
        now: Optional[float] = None,
        lease_duration: Optional[float] = None,
    ) -> Optional[Tuple[str, ExperimentSpec, int]]:
        """Lease the next runnable cell to ``worker``.

        Expires stale leases first (their cells re-queue), then leases
        the oldest pending cell whose backoff has elapsed.  Returns
        ``(key, spec, attempt)`` or ``None`` when nothing is claimable
        right now (the queue may still hold backed-off or leased cells —
        check :meth:`state`).  A cell whose journaled spec this version
        cannot build (say, one submitted by an older version) fails for
        good, with the reason, and the next cell is leased instead.
        """
        if now is None:
            now = time.time()
        duration = (
            self.lease_duration if lease_duration is None else lease_duration
        )
        with self._folded() as state:
            to_append: List[Dict[str, Any]] = [
                {
                    "type": "requeue",
                    "key": cell.key,
                    "worker": cell.worker,
                    "expires": cell.lease_expires,
                    "at": now,
                }
                for cell in state.expired_leases(now)
            ]
            for rec in to_append:
                state.apply(rec)
            claimed = None
            while claimed is None:
                cell = state.claimable(now)
                if cell is None:
                    break
                attempt = cell.attempts + 1
                try:
                    spec = cell.to_experiment_spec()
                except (TypeError, ValueError) as exc:
                    rec = {
                        "type": "fail",
                        "key": cell.key,
                        "worker": worker,
                        "attempt": attempt,
                        "error": f"unbuildable spec: {exc}"[:2000],
                        "kind": "error",
                        "terminal": True,
                        "not_before": now,
                    }
                else:
                    rec = {
                        "type": "lease",
                        "key": cell.key,
                        "worker": worker,
                        "attempt": attempt,
                        "expires": now + duration,
                    }
                    claimed = cell.key, spec, attempt
                to_append.append(rec)
                state.apply(rec)
            self._append(to_append)
        return claimed

    def renew(self, key: str, worker: str, now: Optional[float] = None) -> None:
        """Extend ``worker``'s lease on ``key`` (dated ``now``)."""
        if now is None:
            now = time.time()
        self.journal.append(
            {
                "type": "renew",
                "key": key,
                "worker": worker,
                "expires": now + self.lease_duration,
                "at": now,
            }
        )

    # -------------------------------------------------------------- outcome
    def complete(
        self, key: str, worker: str, attempt: int, executed: bool
    ) -> None:
        """Mark a cell done.  ``executed=False`` records a cache-dedupe
        completion (the result already existed; nothing was simulated)."""
        self.journal.append(
            {
                "type": "done",
                "key": key,
                "worker": worker,
                "attempt": int(attempt),
                "executed": bool(executed),
            }
        )

    def fail(
        self,
        key: str,
        worker: str,
        attempt: int,
        error: str,
        now: Optional[float] = None,
        kind: str = "error",
    ) -> bool:
        """Record a failed attempt; returns True when it was terminal.

        ``kind`` says how the attempt died (``"error"``, ``"crash"`` or
        ``"timeout"``; see :class:`~repro.core.batch.FailedSpec`).
        Non-terminal failures re-queue the cell with exponential
        backoff; once ``retry_budget`` attempts are spent the cell is a
        terminal :data:`FAILED` (see :meth:`failed_specs`).
        """
        if now is None:
            now = time.time()
        attempt = int(attempt)
        terminal = attempt >= self.retry_budget
        self.journal.append(
            {
                "type": "fail",
                "key": key,
                "worker": worker,
                "attempt": attempt,
                "error": str(error)[:2000],
                "kind": kind,
                "terminal": terminal,
                "not_before": now + self.backoff_base * 2 ** (attempt - 1),
            }
        )
        return terminal

    # -------------------------------------------------------------- results
    def failed_specs(self) -> List[FailedSpec]:
        """Terminal failures, as the batch runner would report them."""
        state = self.state()
        return [
            state.cells[k].to_failed_spec()
            for k in state.order
            if state.cells[k].status == FAILED
        ]

    def results(self, cache) -> Dict[str, Any]:
        """Cached results for every done cell (key -> RunResult).

        Cells whose result has been evicted from the cache are omitted;
        re-submitting them is safe (execution is idempotent).
        """
        state = self.state()
        out: Dict[str, Any] = {}
        for key in state.order:
            if state.cells[key].status == DONE:
                res = cache.get(key)
                if res is not None:
                    out[key] = res
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepQueue({str(self.root)!r})"


def asdict_state(state: SweepState) -> Dict[str, Any]:
    """JSON view of a sweep's state (the ``status`` CLI / HTTP payload)."""
    return {
        "counts": state.counts(),
        "settled": state.settled,
        "cells": {
            key: {
                "app": state.cells[key].spec.get("app"),
                "system": state.cells[key].spec.get("system"),
                "prefetch": state.cells[key].spec.get("prefetch"),
                "status": state.cells[key].status,
                "worker": state.cells[key].worker,
                "attempts": state.cells[key].attempts,
                "executed_runs": state.cells[key].executed_runs,
                "last_error": state.cells[key].last_error,
                "last_kind": state.cells[key].last_kind,
            }
            for key in state.order
        },
    }
