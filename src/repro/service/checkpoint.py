"""Checkpoint/resume for very large cells: snapshot digests + replay.

A simulation cell is a pure, deterministic function of its
:class:`~repro.core.batch.ExperimentSpec` (per-cell seeding lives in the
``RngRegistry`` substream machinery), so the cheapest *provably correct*
checkpoint is not a serialized heap but a **trajectory attestation**: at
every ``checkpoint_every`` simulated pcycles the engine pauses between
events and a :func:`state_fingerprint` — a SHA-256 over the machine's
observable state (event count, clock, metrics tallies, per-CPU accounts,
page-state census, ring occupancy, network bytes) — is appended to a
crash-safe checkpoint journal.

Resume (:func:`run_with_checkpoints` on an existing checkpoint file)
replays the cell from the start with the *same deterministic slicing*
and verifies every recorded fingerprint as its checkpoint passes; a
single divergent bit in any of those quantities raises
:class:`CheckpointDivergence`.  A resumed run is therefore **provably
bit-identical** to the interrupted one through its last checkpoint, and
— because bounded engine runs are trajectory-neutral (``try_jump``
refuses past a ``run(until=...)`` limit and the evented fallback is
bit-identical, the PR-6 contract) — to an uninterrupted run as well.

Slicing is in simulated time, never wall-clock: wall-clock checkpoints
would slice differently on every host and make fingerprints
incomparable.

This is the ``--checkpoint-every`` substrate used by ``repro run`` and
:class:`~repro.service.worker.Worker` for million-pcycle cells where a
wrong resumed result would silently poison a sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.apps import make_app
from repro.core.batch import ExperimentSpec
from repro.core.keys import canonical
from repro.core.machine import Machine, RunResult
from repro.core.runner import _audit_default, linear_scale
from repro.osim import PageState
from repro.service.journal import Journal

#: bump when the fingerprint's contents change (old files are refused)
CHECKPOINT_VERSION = 1


class CheckpointMismatch(Exception):
    """The checkpoint file on disk belongs to a different cell/cadence."""


class CheckpointDivergence(Exception):
    """A resumed run's state stopped matching its recorded fingerprints.

    This means the replay is *not* reproducing the interrupted run —
    nondeterminism, a code change mid-sweep, or file damage — and the
    result can no longer be attested; the caller should clear the
    checkpoint and re-run the cell from scratch.
    """


def state_fingerprint(machine: Machine) -> str:
    """SHA-256 digest of a machine's observable mid-run state.

    Covers every quantity a finished :class:`RunResult` is built from
    (so two runs with equal fingerprints at every checkpoint cannot
    produce different results) while excluding the quantities that are
    deliberately outside the bit-identity contract: ``events_jumped``
    (surfaced as the ``epoch_events_jumped`` extra), which measures
    *how* the trajectory was executed, not the trajectory itself.
    """
    m = machine.metrics
    payload: Dict[str, Any] = {
        "events": machine.engine.events_processed,
        "now": repr(machine.engine.now),
        "counts": m.counts.as_dict(),
        "tallies": {
            name: _tally_tuple(getattr(m, name))
            for name in (
                "swapout",
                "swapout_wait",
                "fault_latency",
                "disk_hit_latency",
                "ring_hit_latency",
            )
        },
        "phases": m.phases,
        "cpus": [
            {
                "times": dict(c.acct.times),
                "stats": c.stats.as_dict(),
                "started": repr(c.started_at),
                "finished": repr(c.finished_at),
            }
            for c in machine.cpus
        ],
        "network_bytes": machine.network.bytes_sent,
        "pages": {
            s.value: machine.vm.table.count_state(s) for s in PageState
        },
        "ring_stored": (
            machine.ring.total_stored if machine.ring is not None else 0
        ),
        "combining": [
            _tally_tuple(ctrl.combining) for ctrl in machine.controllers
        ],
    }
    blob = json.dumps(
        canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _tally_tuple(t) -> list:
    return [t.n, repr(t._mean), repr(t._m2), repr(t.total),
            repr(t.min), repr(t.max)]


def build_machine(spec: ExperimentSpec) -> "tuple[Machine, Any]":
    """The (machine, workload) pair ``spec.run()`` would execute.

    Mirrors :func:`~repro.core.runner.run_experiment`'s resolution —
    including the ``NWCACHE_AUDIT`` default — on top of the spec's own
    :meth:`~repro.core.batch.ExperimentSpec.resolved_config`.
    """
    cfg = spec.resolved_config()
    if _audit_default() and not cfg.audit:
        cfg = cfg.replace(audit=True)
    workload = make_app(
        spec.app,
        scale=linear_scale(spec.app, spec.data_scale),
        page_size=cfg.page_size,
        **spec.app_params,
    )
    machine = Machine(
        cfg,
        system=spec.system,
        prefetch=spec.prefetch,
        drain_policy=spec.drain_policy,
    )
    return machine, workload


def clear_checkpoint(path: "Path | str") -> None:
    """Remove a cell's checkpoint file (after completion, or to force a
    from-scratch re-run after a divergence)."""
    p = Path(path)
    try:
        p.unlink()
    except FileNotFoundError:
        pass
    lock = p.with_name(p.name + ".lock")
    try:
        lock.unlink()
    except FileNotFoundError:
        pass


def run_with_checkpoints(
    spec: ExperimentSpec,
    every: float,
    path: "Path | str",
    resume: bool = True,
    on_snapshot: Optional[Callable[[int, str], None]] = None,
) -> RunResult:
    """Run one cell with periodic checkpoints, resuming/verifying if a
    checkpoint file already exists.

    Parameters
    ----------
    spec:
        The cell to run (declarative, as in the batch runner).
    every:
        Checkpoint cadence in simulated **pcycles** (must be a positive
        finite number — simulated time keeps slicing deterministic).
    path:
        The checkpoint journal for this cell.  Callers key it by the
        cell's cache key (see :meth:`SweepQueue.checkpoint_path`).
    resume:
        When False an existing file is ignored and overwritten.
    on_snapshot:
        Optional hook ``(index, fingerprint)`` fired after every
        checkpoint is recorded or verified (tests use it to interrupt
        at exact points).

    Raises
    ------
    CheckpointMismatch:
        The file on disk was recorded for a different cell or cadence.
    CheckpointDivergence:
        Replay stopped matching the recorded fingerprints.
    """
    every = float(every)
    if not math.isfinite(every) or every <= 0:
        raise ValueError(
            f"checkpoint_every must be a positive finite number of "
            f"simulated pcycles, got {every!r}"
        )
    key = spec.key()
    journal = Journal(path)
    recorded: Dict[int, str] = {}
    if resume and journal.exists():
        records = journal.replay()
        if records:
            head = records[0]
            if (
                head.get("type") != "begin"
                or head.get("version") != CHECKPOINT_VERSION
                or head.get("key") != key
                or head.get("every") != repr(every)
            ):
                raise CheckpointMismatch(
                    f"{journal.path} was recorded for a different cell, "
                    f"cadence, or format (expected key {key[:12]}..., "
                    f"every {every:g})"
                )
            for rec in records[1:]:
                if rec.get("type") == "snap":
                    recorded[int(rec["k"])] = rec["fp"]
    if not recorded:
        # fresh start (or ignored/empty file): truncate and re-begin
        clear_checkpoint(journal.path)
        journal.append(
            {
                "type": "begin",
                "version": CHECKPOINT_VERSION,
                "key": key,
                "app": spec.app,
                "system": spec.system,
                "every": repr(every),
            }
        )

    machine, workload = build_machine(spec)
    seen = 0

    def on_checkpoint(m: Machine) -> None:
        nonlocal seen
        seen += 1
        fp = state_fingerprint(m)
        prior = recorded.get(seen)
        if prior is not None:
            if prior != fp:
                raise CheckpointDivergence(
                    f"checkpoint {seen} (t={m.engine.now:g}) diverged from "
                    f"the recorded run: {prior[:12]}... != {fp[:12]}...; "
                    "clear the checkpoint and re-run from scratch"
                )
        else:
            journal.append(
                {
                    "type": "snap",
                    "k": seen,
                    "t": repr(m.engine.now),
                    "events": m.engine.events_processed,
                    "fp": fp,
                }
            )
        if on_snapshot is not None:
            on_snapshot(seen, fp)

    return machine.run(
        workload, checkpoint_every=every, on_checkpoint=on_checkpoint
    )
