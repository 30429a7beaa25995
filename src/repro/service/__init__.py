"""Durable sweep service: journaled work queue, leases, checkpointed runs.

This package is the repo's one job harness.  The batch runner
(:func:`repro.core.batch.run_batch`) is its thin client: a private queue
in a temporary directory, drained by one :class:`Worker`.  Given a
directory of its own, the same queue makes the **sweep itself** durable.
All coordination state lives in an append-only, checksummed journal under
a shared directory, so any number of workers — local processes or remote
hosts mounting the same path — can pull cells under time-bounded leases,
die at arbitrary points, and still converge the sweep to exactly the
results an uninterrupted run would have produced (the content-addressed
result cache is the dedupe layer that makes re-execution idempotent).

Layers, bottom up:

* :mod:`repro.service.journal` — the crash-safe record log;
* :mod:`repro.service.lease` — the spec state machine
  (pending → leased → done/failed) and the on-disk :class:`SweepQueue`;
* :mod:`repro.service.checkpoint` — deterministic snapshot/verify
  checkpointing for very large cells;
* :mod:`repro.service.worker` — the leased worker loop: up to ``jobs``
  cells in flight, each in a deadline-bounded child process
  (:class:`~repro.core.batch.CellProcesses`), one failure policy (the
  queue's retry budget and backoff), lease renewal from the loop
  itself, and graceful drain;
* :mod:`repro.service.server` — ``repro serve``: submit/status/results
  over HTTP with streaming progress.

See ``docs/robustness.md`` §4 for the protocol and a kill-and-resume
walkthrough.
"""

from repro.service.journal import Journal, JournalCorruption
from repro.service.lease import (
    SpecState,
    SweepQueue,
    SweepState,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.worker import Worker

__all__ = [
    "Journal",
    "JournalCorruption",
    "SpecState",
    "SweepQueue",
    "SweepState",
    "Worker",
    "spec_from_dict",
    "spec_to_dict",
]
