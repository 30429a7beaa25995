#!/usr/bin/env python
"""End-to-end sweep-resilience smoke test (used by CI).

The kill-and-resume oracle for the durable sweep service, outside
pytest, the way an operator would hit it:

1. run a reference sweep uninterrupted and record every result;
2. run the same sweep in a second directory, but SIGKILL the first
   worker from inside a cell (mid-simulation, checkpoints on disk);
3. let a survivor worker resume over the dead worker's journal and
   checkpoint, wait out the orphaned lease, and settle the sweep;
4. assert the resumed results are **bit-identical** to the reference
   and that the journal's accounting shows **no cell executed more
   than once** (the killed attempt never journaled a completion);
5. SIGKILL a real ``Worker`` process while the child running its cell
   is mid-simulation with checkpoints on, assert the orphaned child
   exits within 5 s (it must not keep appending to the checkpoint a
   successor resumes from), and check a survivor's results the same
   way;
6. append half a record to a half-finished sweep's journal (a writer
   that crashed mid-append), resume it with a fresh worker, and check
   its results the same way and that the journal then replays whole:
   no ``JournalCorruption`` and no torn tail left behind.

Pass ``--artifact-dir DIR`` to keep the survivor's journal and the
resumed checkpoint journal for upload/inspection.  Exits non-zero on
the first violated expectation.
"""

import argparse
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.core.batch import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.export import result_to_full_dict
from repro.service import SweepQueue, Worker
from repro.service.checkpoint import run_with_checkpoints
from repro.service.journal import Journal, JournalCorruption, record_line
from repro.service.lease import DONE, LEASED

SCALE = 0.05
EVERY = 1e5  # checkpoint cadence in simulated pcycles
KILL_AT_SNAPSHOT = 2
ORPHAN_GRACE_S = 5.0  # how long a dead worker's cell child may outlive it


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {what}")


def specs():
    return [
        ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE)
        for app in ("sor", "fft")
    ]


def fingerprint(res) -> dict:
    d = result_to_full_dict(res)
    # epoch_* extras describe the execution strategy, not the machine;
    # they sit outside the bit-identity contract
    d["extras"] = {
        k: v for k, v in d["extras"].items() if not k.startswith("epoch_")
    }
    return d


def doomed_worker(root: str) -> None:
    """Claim the first cell and die by SIGKILL mid-simulation."""
    import os
    import signal

    queue = SweepQueue(root, lease_duration=1.0)
    key, spec, attempt = queue.claim("doomed")

    def boom(k, fp):
        if k >= KILL_AT_SNAPSHOT:
            os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no goodbye

    run_with_checkpoints(
        spec, EVERY, queue.checkpoint_path(key), on_snapshot=boom
    )
    raise AssertionError("unreachable: the worker must have died mid-cell")


class StallingWorker(Worker):
    """A real worker whose cell child announces its pid at snapshot
    ``KILL_AT_SNAPSHOT`` and then slows down, so it is reliably
    mid-cell (and still checkpointing) when its worker is killed."""

    pidfile = ""

    def _execute(self, key, spec):
        def stall(k, fp):
            if k == KILL_AT_SNAPSHOT:
                Path(self.pidfile).write_text(str(os.getpid()))
            if k >= KILL_AT_SNAPSHOT:
                time.sleep(0.2)

        return run_with_checkpoints(
            spec, EVERY, self.queue.checkpoint_path(key), on_snapshot=stall
        )


def stalling_worker(root: str, cache_dir: str, pidfile: str) -> None:
    worker = StallingWorker(
        SweepQueue(root, lease_duration=1.0),
        cache=ResultCache(cache_dir),
        worker_id="doomed-worker",
        checkpoint_every=EVERY,
        jobs=1,
    )
    worker.pidfile = pidfile
    worker.run()
    raise AssertionError("unreachable: the worker must have been killed")


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def settle_and_compare(queue, cache, keys, reference) -> None:
    """Run a survivor over ``queue``; check it settles to ``reference``."""
    Worker(
        queue,
        cache=cache,
        worker_id="survivor",
        poll_interval=0.1,
        checkpoint_every=EVERY,
    ).run()
    state = queue.state()
    check(state.settled, "survivor settled the sweep")
    check(
        all(c.status == DONE for c in state.cells.values()),
        "every cell completed",
    )
    check(
        all(c.executed_runs == 1 for c in state.cells.values()),
        "journal accounting: no cell executed more than once",
    )
    resumed = {k: fingerprint(cache.get(k)) for k in keys}
    check(
        resumed == reference,
        "resumed results bit-identical to the uninterrupted reference",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="keep the survivor journal + checkpoint journal here",
    )
    args = parser.parse_args()

    if "fork" not in multiprocessing.get_all_start_methods():
        print("skip: no fork start method on this platform")
        return

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        print("reference sweep (uninterrupted):")
        ref_queue = SweepQueue(root / "ref")
        ref_cache = ResultCache(root / "ref-cache")
        keys = ref_queue.submit(specs())
        stats = Worker(ref_queue, cache=ref_cache, worker_id="ref").run()
        check(stats.executed == len(keys), "every cell simulated once")
        reference = {k: fingerprint(ref_cache.get(k)) for k in keys}

        print("killed sweep (SIGKILL mid-cell, then resume):")
        sweep_root = root / "killed"
        queue = SweepQueue(sweep_root, lease_duration=1.0)
        cache = ResultCache(root / "killed-cache")
        check(queue.submit(specs()) == keys, "same specs key identically")

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=doomed_worker, args=(str(sweep_root),))
        child.start()
        child.join(timeout=120)
        check(child.exitcode == -9, "first worker died by SIGKILL")

        state = queue.state()
        check(
            all(c.status != DONE for c in state.cells.values()),
            "the dead worker finished nothing",
        )
        orphaned = [k for k, c in state.cells.items() if c.status == LEASED]
        check(len(orphaned) == 1, "exactly one orphaned lease left behind")
        ckpt = queue.checkpoint_path(orphaned[0])
        snaps = [r for r in Journal(ckpt).replay() if r["type"] == "snap"]
        check(
            len(snaps) >= KILL_AT_SNAPSHOT,
            "checkpoints survived the kill",
        )
        if args.artifact_dir is not None:
            # keep the checkpoint now — the survivor clears it on completion
            args.artifact_dir.mkdir(parents=True, exist_ok=True)
            shutil.copy(ckpt, args.artifact_dir / "resumed-cell.ckpt")

        settle_and_compare(queue, cache, keys, reference)
        check(
            queue.state().cells[orphaned[0]].attempts == 2,
            "the killed cell needed (exactly) a second attempt",
        )

        if args.artifact_dir is not None:
            shutil.copy(queue.journal.path, args.artifact_dir / "journal.nwj")
            print(f"  artifacts kept in {args.artifact_dir}")

        print("killed worker process (SIGKILL while its child is mid-cell):")
        sweep_root = root / "killed-worker"
        queue = SweepQueue(sweep_root, lease_duration=1.0)
        cache_dir = root / "killed-worker-cache"
        check(queue.submit(specs()) == keys, "same specs key identically")
        pidfile = root / "cell-child.pid"
        worker = ctx.Process(
            target=stalling_worker,
            args=(str(sweep_root), str(cache_dir), str(pidfile)),
        )
        worker.start()
        deadline = time.monotonic() + 120
        while not (pidfile.exists() and pidfile.read_text()):
            if time.monotonic() > deadline or not worker.is_alive():
                worker.kill()
                check(False, "the worker's cell child reached a checkpoint")
            time.sleep(0.01)
        cell_pid = int(pidfile.read_text())
        check(cell_pid != worker.pid, "the cell runs in a child of the worker")
        os.kill(worker.pid, signal.SIGKILL)
        worker.join()
        check(worker.exitcode == -signal.SIGKILL, "the worker died by SIGKILL")
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while running(cell_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphan_alive = running(cell_pid)
        if orphan_alive:
            os.kill(cell_pid, signal.SIGKILL)
        check(
            not orphan_alive,
            f"the orphaned cell child exited within {ORPHAN_GRACE_S:g} s",
        )
        state = queue.state()
        check(
            all(c.status != DONE for c in state.cells.values()),
            "the dead worker finished nothing",
        )
        (orphaned,) = [k for k, c in state.cells.items() if c.status == LEASED]
        snaps = [
            r
            for r in Journal(queue.checkpoint_path(orphaned)).replay()
            if r["type"] == "snap"
        ]
        check(len(snaps) >= KILL_AT_SNAPSHOT, "checkpoints survived the kill")
        settle_and_compare(queue, ResultCache(cache_dir), keys, reference)

        print("torn journal tail (half a record, then resume):")
        sweep_root = root / "torn"
        queue = SweepQueue(sweep_root, lease_duration=1.0)
        cache = ResultCache(root / "torn-cache")
        check(queue.submit(specs()) == keys, "same specs key identically")
        Worker(queue, cache=cache, worker_id="first", max_cells=1, jobs=1).run()
        check(queue.state().counts()[DONE] == 1, "half the sweep is done")
        line = record_line(
            {"type": "renew", "key": keys[1], "worker": "crashed",
             "expires": 0.0, "at": 0.0}
        )
        with open(queue.journal.path, "ab") as fh:
            fh.write(line[: len(line) // 2])
        journal = Journal(queue.journal.path)
        journal.replay()
        check(journal.truncated_tail, "the journal ends in half a record")
        settle_and_compare(
            SweepQueue(sweep_root, lease_duration=1.0), cache, keys, reference
        )
        try:
            journal.replay()
        except JournalCorruption as exc:
            check(False, f"the resumed journal replays ({exc})")
        check(
            not journal.truncated_tail,
            "the resumed journal replays whole (the torn record was cut)",
        )

    print("resilience smoke: all checks passed")


if __name__ == "__main__":
    main()
