"""The leased worker loop: execution, dedupe, confinement, races.

Worker behavior is pinned with deterministic queue interactions — the
lease-expiry race is sequenced explicitly with ``now`` values rather
than real concurrency, so the arbitration outcome is reproducible.
"""

import json
import threading
import time

from repro.core.batch import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.export import result_to_full_dict
from repro.service import SweepQueue, Worker
from repro.service.lease import DONE, FAILED

SCALE = 0.05


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _queue(tmp_path, **kw):
    return SweepQueue(tmp_path / "sweep", lease_duration=30.0, **kw)


def _full(res):
    d = result_to_full_dict(res)
    d["extras"] = {
        k: v for k, v in d["extras"].items() if not k.startswith("epoch_")
    }
    return d


def test_worker_drains_a_sweep(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    keys = q.submit([_spec(), _spec(app="fft")])
    events = []
    w = Worker(q, cache=cache, worker_id="w1",
               progress=lambda ev, spec, key: events.append((ev, spec.app)))
    stats = w.run()
    assert stats.executed == 2 and stats.cached == 0 and stats.failed == 0
    assert not stats.drained
    state = q.state()
    assert state.settled
    assert all(state.cells[k].status == DONE for k in keys)
    assert all(state.cells[k].executed_runs == 1 for k in keys)
    assert sorted(q.results(cache)) == sorted(keys)
    assert ("claim", "sor") in events and ("done", "fft") in events


def test_cache_is_the_dedupe_layer(tmp_path):
    """A second sweep over the same cells completes without simulating:
    this is what makes crash re-execution idempotent."""
    cache = ResultCache(tmp_path / "cache")
    specs = [_spec(), _spec(app="fft")]
    q1 = _queue(tmp_path / "a")
    q1.submit(specs)
    assert Worker(q1, cache=cache, worker_id="w1").run().executed == 2
    q2 = _queue(tmp_path / "b")
    q2.submit(specs)
    stats = Worker(q2, cache=cache, worker_id="w2").run()
    assert stats.executed == 0 and stats.cached == 2
    state = q2.state()
    assert state.settled
    assert all(c.executed_runs == 0 for c in state.cells.values())


def test_failing_cell_is_confined_and_terminal(tmp_path):
    q = _queue(tmp_path, retry_budget=2, backoff_base=0.01)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(app="fft")])
    # keys fine (JSON-clean) but blows up when the app is instantiated
    q.submit([_spec(app_params={"definitely_not_a_param": 1})])
    w = Worker(q, cache=cache, worker_id="w1", poll_interval=0.01)
    stats = w.run()
    assert stats.executed == 1  # the good cell still ran
    assert stats.failed == 2    # both attempts at the bad cell
    state = q.state()
    assert state.settled
    counts = state.counts()
    assert counts[DONE] == 1 and counts[FAILED] == 1
    (failed,) = q.failed_specs()
    assert failed.attempts == 2 and failed.retries == 1
    assert "definitely_not_a_param" in failed.error


def test_lease_expiry_race_one_result_wins(tmp_path):
    """Two workers end up claiming the same cell (the first's lease
    expired); both finish.  Exactly one result lives in the cache, the
    cell is done, and — because cells are deterministic — the accounting
    shows both completions converging on identical bytes."""
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    spec = _spec()
    (key,) = q.submit([spec])
    ref = _full(spec.run())

    # worker A claims, then stalls (no heartbeat) past its lease
    ka, spec_a, attempt_a = q.claim("worker-a", now=0.0)
    # worker B claims after expiry: same cell, next attempt
    kb, spec_b, attempt_b = q.claim("worker-b", now=100.0)
    assert ka == kb == key and (attempt_a, attempt_b) == (1, 2)

    # B finishes first and publishes
    res_b = spec_b.run()
    cache.put(key, res_b)
    q.complete(key, "worker-b", attempt_b, executed=True)
    # A wakes up and finishes too; its publish is a no-op rewrite of
    # identical bytes (content-addressed + deterministic)
    res_a = spec_a.run()
    assert _full(res_a) == _full(res_b) == ref
    cache.put(key, res_a)
    q.complete(key, "worker-a", attempt_a, executed=True)

    state = q.state()
    assert state.cells[key].status == DONE
    assert state.settled
    # truthful accounting: the race cost one duplicate execution
    assert state.cells[key].executed_runs == 2
    # but exactly one result exists, and it is the reference
    assert len(cache) == 1
    assert _full(cache.get(key)) == ref


def test_worker_respects_max_cells(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(), _spec(app="fft"), _spec(app="lu")])
    stats = Worker(q, cache=cache, worker_id="w1", max_cells=1).run()
    assert len(stats.keys) == 1
    assert not q.state().settled


def test_drain_request_stops_after_current_cell(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(), _spec(app="fft")])
    w = Worker(q, cache=cache, worker_id="w1")
    # drain requested mid-loop (as the SIGTERM handler would): the
    # in-flight cell finishes, the next is never claimed
    w.progress = lambda ev, spec, key: w.request_drain() if ev == "claim" else None
    stats = w.run()
    assert stats.drained
    assert len(stats.keys) == 1
    state = q.state()
    assert state.counts()[DONE] == 1  # the claimed cell was not abandoned


def test_worker_checkpoints_long_cells(tmp_path, monkeypatch):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    (key,) = q.submit([_spec()])
    ckpt = q.checkpoint_path(key)

    import repro.service.worker as worker_mod

    # the cell runs in a child process, so the spy records through a file
    spy = tmp_path / "snapshots.txt"

    def spying_execute(self, k, spec):
        from repro.service.checkpoint import run_with_checkpoints

        def record(i, fp):
            with open(spy, "a") as f:
                f.write(f"{i}\n")

        return run_with_checkpoints(
            spec, self.checkpoint_every, self.queue.checkpoint_path(k),
            on_snapshot=record,
        )

    monkeypatch.setattr(worker_mod.Worker, "_execute", spying_execute)
    stats = Worker(q, cache=cache, worker_id="w1", checkpoint_every=1e5).run()
    snaps = spy.read_text().split() if spy.exists() else []
    assert stats.executed == 1
    assert snaps, "the cell ran under the checkpoint protocol"
    assert not ckpt.exists(), "checkpoint is cleared once the cell is done"
    assert _full(cache.get(key))["app"] == "sor"


def _digest(res):
    """Every simulated statistic of a result, as comparable bytes."""
    return json.dumps(result_to_full_dict(res), sort_keys=True, default=repr)


def test_parallel_worker_matches_in_process_runs(tmp_path):
    """Cells run two at a time in child processes come back bit-identical
    to an in-process ``spec.run()``, each executed exactly once."""
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    specs = [_spec(app) for app in ("sor", "fft", "lu", "radix")]
    keys = q.submit(specs)
    stats = Worker(q, cache=cache, worker_id="w1", jobs=2).run()
    assert stats.executed == 4 and stats.cached == 0 and stats.failed == 0
    state = q.state()
    assert state.settled
    for key, spec in zip(keys, specs):
        assert state.cells[key].executed_runs == 1
        assert _digest(cache.get(key)) == _digest(spec.run())


def test_hung_cell_fails_at_its_deadline(tmp_path, monkeypatch):
    """A cell that hangs is killed at the per-cell deadline on every
    attempt and ends terminally failed, while its siblings finish; its
    lease is not renewed past any of its deadlines."""
    import repro.service.worker as worker_mod

    timeout, budget, lease = 1.0, 2, 0.6
    real_execute = worker_mod.Worker._execute

    def hang_lu(self, key, spec):
        # lu hangs far past every deadline; the siblings take long
        # enough that the worker is still busy (and renewing leases)
        # while the failed lu waits out its backoff
        time.sleep(60 if spec.app == "lu" else 0.5)
        return real_execute(self, key, spec)

    monkeypatch.setattr(worker_mod.Worker, "_execute", hang_lu)
    monkeypatch.setenv("NWCACHE_BATCH_TIMEOUT", str(timeout))
    q = SweepQueue(
        tmp_path / "sweep", lease_duration=lease, retry_budget=budget,
        backoff_base=1.0,
    )
    cache = ResultCache(tmp_path / "cache")
    siblings = ("sor", "fft", "radix", "em3d")
    keys = q.submit([_spec(app="lu")] + [_spec(app=a) for a in siblings])
    hung = keys[0]
    start = time.monotonic()
    stats = Worker(
        q, cache=cache, worker_id="w1", poll_interval=0.05, jobs=2
    ).run()
    elapsed = time.monotonic() - start
    state = q.state()
    assert state.settled
    assert state.cells[hung].status == FAILED
    assert all(state.cells[k].status == DONE for k in keys[1:])
    assert stats.executed == len(siblings) and stats.failed == budget
    assert state.cells[hung].attempts == budget
    assert "1s deadline" in state.cells[hung].last_error
    assert timeout * budget <= elapsed < 30

    # every renewal of the hung cell is dated within the attempt it
    # renews: no later than the lease's start plus the deadline (with
    # a little slack for forking the child after the claim)
    renewals, lease_start = 0, None
    for rec in q.journal.replay():
        if rec.get("key") != hung:
            continue
        if rec["type"] == "lease":
            lease_start = rec["expires"] - lease
        elif rec["type"] == "renew":
            renewals += 1
            assert rec["at"] <= lease_start + timeout + 0.25, rec
    assert renewals, "the hung cell's lease was renewed while it ran"


def test_worker_forks_with_no_other_thread_alive(tmp_path, monkeypatch):
    import repro.core.batch as batch_mod

    threads = []
    real_start = batch_mod.CellProcesses.start

    def counting_start(self, *args):
        threads.append(threading.active_count())
        return real_start(self, *args)

    monkeypatch.setattr(batch_mod.CellProcesses, "start", counting_start)
    q = _queue(tmp_path)
    q.submit([_spec(), _spec(app="fft")])
    stats = Worker(q, cache=False, worker_id="w1", jobs=2).run()
    assert stats.executed == 2
    assert threads == [1, 1]


def test_worker_runs_cells_in_spawned_children(tmp_path, monkeypatch):
    """Where fork is unavailable, cells run in spawned children (the
    worker is pickled to them without its progress callback)."""
    import multiprocessing

    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    spec = _spec()
    (key,) = q.submit([spec])
    events = []
    stats = Worker(
        q, cache=cache, worker_id="w1", jobs=1,
        progress=lambda ev, spec, key: events.append(ev),
    ).run()
    assert stats.executed == 1
    assert events == ["claim", "done"]
    assert _digest(cache.get(key)) == _digest(spec.run())
