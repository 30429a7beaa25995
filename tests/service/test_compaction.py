"""Journal compaction: fold a long journal down without changing state.

The journal grows by one line per lease renewal, retry, and completion, and
every queue operation replays all of it — so long sweeps need
:meth:`SweepQueue.maybe_compact` to rewrite the log as one snapshot
record per cell.  The whole contract is that this is unobservable: the
replayed :class:`SweepState` after compaction must equal the one
before, for every cell field the state machine consults, and every
subsequent decision (claims, backoff, retry budgets, absorbing done)
must come out the same.
"""

import dataclasses

from repro.core.batch import ExperimentSpec
from repro.service.lease import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    SweepQueue,
    SweepState,
    replay_state,
    snapshot_record,
)

SCALE = 0.05


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _queue(tmp_path, **kw):
    kw.setdefault("lease_duration", 10.0)
    kw.setdefault("retry_budget", 3)
    return SweepQueue(tmp_path / "sweep", **kw)


def _cell_view(cell):
    """Every field the state machine consults, in comparable form."""
    d = dataclasses.asdict(cell)
    for mark_field in ("done_marks", "executed_marks", "fail_marks"):
        d[mark_field] = sorted(d[mark_field])
    return d


def _state_view(state):
    return [_cell_view(state.cells[key]) for key in state.order]


def _mixed_history(queue):
    """Drive a queue through every record type; return a busy journal."""
    specs = [
        _spec(),
        _spec(app="gauss"),
        _spec(app="radix"),
        _spec(app="fft"),
    ]
    keys = queue.submit(specs)
    # cell 0: done after one clean run
    k, _, attempt = queue.claim("w1", now=100.0)
    assert k == keys[0]
    queue.renew(k, "w1", now=101.0)
    queue.complete(k, "w1", attempt, executed=True)
    # cell 1: one failed attempt, then leased again (live lease)
    k, _, attempt = queue.claim("w2", now=102.0)
    assert k == keys[1]
    queue.fail(k, "w2", attempt, "boom", now=103.0)
    # long lease so this claim is still live at every later timestamp
    k2, _, _ = queue.claim("w2", now=1000.0, lease_duration=1e9)
    assert k2 == keys[1]
    # cell 2: terminal failure (budget exhausted)
    for round_no in range(queue.retry_budget):
        now = 2000.0 + 500.0 * round_no
        k, _, attempt = queue.claim("w3", now=now)
        assert k == keys[2]
        queue.fail(k, "w3", attempt, f"crash {round_no}", now=now + 1.0)
    # cell 3 stays pending
    return keys


def test_compaction_preserves_replayed_state(tmp_path):
    queue = _queue(tmp_path, compact_threshold=1)
    _mixed_history(queue)
    before = replay_state(queue.journal)
    lines_before = len(queue.journal.replay())

    assert queue.maybe_compact()

    after = replay_state(queue.journal)
    assert _state_view(after) == _state_view(before)
    assert len(queue.journal.replay()) == len(before.order) < lines_before
    statuses = [after.cells[k].status for k in after.order]
    assert statuses == [DONE, LEASED, FAILED, PENDING]


def test_compaction_below_threshold_is_a_noop(tmp_path):
    queue = _queue(tmp_path, compact_threshold=10_000)
    _mixed_history(queue)
    raw = queue.journal.path.read_bytes()
    assert not queue.maybe_compact()
    assert queue.journal.path.read_bytes() == raw


def test_compaction_disabled_with_none(tmp_path):
    queue = _queue(tmp_path, compact_threshold=None)
    _mixed_history(queue)
    assert not queue.maybe_compact()


def test_queue_rejects_bad_threshold(tmp_path):
    import pytest

    with pytest.raises(ValueError, match="compact_threshold"):
        _queue(tmp_path, compact_threshold=0)


def test_decisions_unchanged_after_compaction(tmp_path):
    """The journal suffix written *after* compaction folds identically."""
    queue = _queue(tmp_path, compact_threshold=1)
    keys = _mixed_history(queue)
    assert queue.maybe_compact()
    # done cell stays done even if a duplicate completion arrives
    queue.complete(keys[0], "w9", 7, executed=False)
    # the live lease on cell 1 still belongs to w2: a claim skips it
    # (backoff on cell 2 is terminal, so the only claimable is cell 3)
    k, spec, attempt = queue.claim("w4", now=5000.0)
    assert k == keys[3]
    assert spec.app == "fft"
    assert attempt == 1  # first attempt of a fresh cell
    state = queue.state()
    assert state.cells[keys[0]].status == DONE
    assert state.cells[keys[1]].status == LEASED
    assert state.cells[keys[1]].worker == "w2"
    assert state.cells[keys[2]].status == FAILED
    assert "crash" in state.cells[keys[2]].last_error
    assert state.cells[keys[2]].attempts == queue.retry_budget
    assert state.cells[keys[3]].status == LEASED


def test_snapshot_records_are_idempotent(tmp_path):
    """Applying a snapshot twice (re-delivered record) is a no-op."""
    queue = _queue(tmp_path, compact_threshold=1)
    _mixed_history(queue)
    state = replay_state(queue.journal)
    snaps = [snapshot_record(state.cells[k]) for k in state.order]
    folded = SweepState()
    for rec in snaps + snaps:
        folded.apply(rec)
    assert _state_view(folded) == _state_view(state)


def test_worker_path_compacts_past_threshold(tmp_path):
    """The worker loop folds the journal once it outgrows the threshold."""
    from repro.service.worker import Worker

    queue = _queue(tmp_path, compact_threshold=3)
    keys = queue.submit([_spec(), _spec(app="gauss")])
    # one cell in flight at a time, so the journal grows lease, done,
    # lease, done
    worker = Worker(queue, cache=False, worker_id="w1", max_cells=2, jobs=1)
    stats = worker.run()
    assert stats.executed == 2
    # submit(2) + lease/done per cell = 6 lines before compaction;
    # the worker's post-cell sweep folds them to one line per cell
    assert len(queue.journal.replay()) == len(keys)
    state = queue.state()
    assert [state.cells[k].status for k in keys] == [DONE, DONE]
