"""The sweep state machine and the on-disk leased work queue.

Everything here drives :class:`SweepQueue` with explicit ``now`` values
so lease expiry, backoff, and retry exhaustion are deterministic — no
sleeps, no wall clocks.
"""

import dataclasses
import json

import pytest

from repro.core.batch import ExperimentSpec, FailedSpec
from repro.service import journal as journal_mod
from repro.service.journal import Journal
from repro.service.lease import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    SweepQueue,
    SweepState,
    asdict_state,
    replay_state,
    spec_from_dict,
    spec_to_dict,
)

SCALE = 0.05


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _queue(tmp_path, **kw):
    kw.setdefault("lease_duration", 10.0)
    kw.setdefault("retry_budget", 3)
    kw.setdefault("backoff_base", 2.0)
    return SweepQueue(tmp_path / "sweep", **kw)


def _state_view(state):
    """Every field of every cell, in comparable form."""
    view = []
    for key in state.order:
        d = dataclasses.asdict(state.cells[key])
        for marks in ("done_marks", "executed_marks", "fail_marks"):
            d[marks] = sorted(d[marks])
        view.append(d)
    return view


def _mixed_history(queue):
    """Drive a queue through every record type; return the cell keys."""
    keys = queue.submit(
        [_spec(), _spec(app="gauss"), _spec(app="radix"), _spec(app="fft")]
    )
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
        queue.fail(
            k, "w3", attempt, f"crash {round_no}", now=now + 1.0, kind="crash"
        )
    # cell 3 stays pending
    return keys


# ------------------------------------------------------------ spec crossing
def test_spec_roundtrips_through_journal_form():
    spec = _spec(app_params={"alpha": 0.9},
                 config={"disk_cache_bytes": 32 * 1024})
    d = spec_to_dict(spec)
    json.dumps(d)  # journal form must be JSON-able
    back = spec_from_dict(d)
    assert back.key() == spec.key()


def test_spec_to_dict_rejects_unserializable_specs():
    from repro.config import SimConfig

    with pytest.raises(ValueError, match="config must be JSON-encodable"):
        spec_to_dict(_spec(config={"disk_cache_bytes": object()}))
    with pytest.raises(ValueError, match="config must be JSON-encodable"):
        spec_to_dict(_spec(config={"faults": SimConfig.tiny()}))
    with pytest.raises(ValueError, match="JSON-encodable"):
        spec_to_dict(_spec(app_params={"f": object()}))
    with pytest.raises(ValueError, match="fault plans"):
        spec_to_dict(_spec(faults={"not": "a string"}))


def test_spec_from_dict_rejects_unknown_fields():
    d = spec_to_dict(_spec())
    d["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        spec_from_dict(d)


def test_env_faults_resolved_at_submit_time(monkeypatch):
    """A worker with a different NWCACHE_FAULTS still runs the cell the
    submitter keyed: the plan is frozen into the journal form."""
    monkeypatch.setenv("NWCACHE_FAULTS", "disk_transient_rate=0.1")
    d = spec_to_dict(_spec())
    assert d["faults"] == "disk_transient_rate=0.1"
    monkeypatch.setenv("NWCACHE_FAULTS", "disk_transient_rate=0.5")
    assert spec_from_dict(d).faults == "disk_transient_rate=0.1"


# ------------------------------------------------------------------ submit
def test_submit_is_idempotent(tmp_path):
    q = _queue(tmp_path)
    specs = [_spec(), _spec(app="fft"), _spec()]  # duplicate in the batch
    keys = q.submit(specs)
    assert keys[0] == keys[2] and keys[0] != keys[1]
    assert q.submit(specs) == keys  # resubmission appends nothing new
    state = q.state()
    assert len(state.cells) == 2
    assert state.counts() == {PENDING: 2, LEASED: 0, DONE: 0, FAILED: 0}


# ------------------------------------------------------------- claim/lease
def test_claim_complete_lifecycle(tmp_path):
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    got = q.claim("w1", now=100.0)
    assert got is not None
    k, spec, attempt = got
    assert k == key and attempt == 1 and spec.app == "sor"
    state = q.state()
    assert state.cells[key].status == LEASED
    assert state.cells[key].worker == "w1"
    assert q.claim("w2", now=101.0) is None  # nothing else to lease
    q.complete(key, "w1", attempt, executed=True)
    state = q.state()
    assert state.cells[key].status == DONE
    assert state.cells[key].executed_runs == 1
    assert state.settled


def test_claims_come_in_submission_order(tmp_path):
    q = _queue(tmp_path)
    keys = q.submit([_spec(), _spec(app="fft"), _spec(app="lu")])
    claimed = [q.claim(f"w{i}", now=float(i))[0] for i in range(3)]
    assert claimed == keys


def test_renew_extends_a_lease(tmp_path):
    q = _queue(tmp_path, lease_duration=10.0)
    (key,) = q.submit([_spec()])
    q.claim("w1", now=0.0)
    q.renew(key, "w1", now=8.0)  # extends to 18.0
    # at t=12 the original lease would have expired; the renewal holds it
    assert q.claim("w2", now=12.0) is None
    assert q.state().cells[key].lease_expires == pytest.approx(18.0)


def test_expired_lease_requeues_to_another_worker(tmp_path):
    q = _queue(tmp_path, lease_duration=10.0)
    (key,) = q.submit([_spec()])
    k1, _, a1 = q.claim("dead-worker", now=0.0)
    assert (k1, a1) == (key, 1)
    # lease expires at t=10; the next claimer requeues and re-leases
    k2, _, a2 = q.claim("survivor", now=20.0)
    assert (k2, a2) == (key, 2)
    state = q.state()
    assert state.cells[key].worker == "survivor"
    assert state.cells[key].attempts == 2


# ---------------------------------------------------------- failure/backoff
def test_fail_requeues_with_exponential_backoff(tmp_path):
    q = _queue(tmp_path, retry_budget=3, backoff_base=2.0)
    (key,) = q.submit([_spec()])
    _, _, attempt = q.claim("w1", now=0.0)
    assert not q.fail(key, "w1", attempt, "boom", now=5.0)
    state = q.state()
    assert state.cells[key].status == PENDING
    assert state.cells[key].not_before == pytest.approx(7.0)  # 5 + 2*2^0
    assert q.claim("w1", now=6.0) is None  # still backing off
    _, _, attempt2 = q.claim("w1", now=7.5)
    assert attempt2 == 2
    assert not q.fail(key, "w1", attempt2, "boom", now=8.0)
    # second failure backs off 2*2^1 = 4s
    assert q.state().cells[key].not_before == pytest.approx(12.0)


def test_retry_budget_exhaustion_is_terminal(tmp_path):
    q = _queue(tmp_path, retry_budget=2)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    assert not q.fail(key, "w1", a1, "first", now=0.0)
    _, _, a2 = q.claim("w1", now=100.0)
    assert a2 == 2
    assert q.fail(key, "w1", a2, "second", now=100.0)  # terminal
    state = q.state()
    assert state.cells[key].status == FAILED
    assert state.settled
    (failed,) = q.failed_specs()
    assert isinstance(failed, FailedSpec)
    assert failed.attempts == 2 and failed.retries == 1
    assert failed.error == "second"
    assert failed.kind == "error"
    assert q.claim("w1", now=1e9) is None  # terminal cells never re-lease


def test_failed_spec_reports_the_last_failure_kind(tmp_path):
    q = _queue(tmp_path, retry_budget=2)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    q.fail(key, "w1", a1, "died", now=0.0, kind="crash")
    _, _, a2 = q.claim("w1", now=100.0)
    q.fail(key, "w1", a2, "exceeded 1s deadline", now=100.0, kind="timeout")
    (failed,) = q.failed_specs()
    assert (failed.kind, failed.error) == ("timeout", "exceeded 1s deadline")
    # fail records without a kind (older journals) read as errors
    legacy = SweepState()
    for rec in q.journal.replay():
        rec.pop("kind", None)
        legacy.apply(rec)
    assert legacy.cells[key].to_failed_spec().kind == "error"


def test_done_is_absorbing(tmp_path):
    """A late failure record (a zombie worker reporting after the cell
    finished elsewhere) cannot un-finish a cell."""
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    q.complete(key, "w2", 2, executed=True)  # another worker won
    q.fail(key, "w1", a1, "zombie says boom", now=50.0)
    assert q.state().cells[key].status == DONE


# ------------------------------------------------------------ replay safety
def test_replay_is_idempotent_under_duplication(tmp_path):
    q = _queue(tmp_path, retry_budget=3)
    (key,) = q.submit([_spec()])
    _, _, a = q.claim("w1", now=0.0)
    q.fail(key, "w1", a, "once", now=1.0)
    _, _, a2 = q.claim("w1", now=10.0)
    q.complete(key, "w1", a2, executed=True)

    journal = Journal(q.journal.path)
    records = journal.replay()
    once = replay_state(journal)
    twice_state = replay_state(journal)
    for rec in records:  # apply the whole history a second time
        twice_state.apply(rec)
    a, b = once.cells[key], twice_state.cells[key]
    assert (a.status, a.attempts, a.executed_runs) == (
        b.status, b.attempts, b.executed_runs,
    )
    assert a.executed_runs == 1  # duplicate done records never double-count


def test_truncated_journal_is_a_valid_earlier_state(tmp_path):
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    _, _, a = q.claim("w1", now=0.0)
    q.complete(key, "w1", a, executed=True)
    full = q.journal.path.read_bytes()
    lines = full.splitlines(keepends=True)
    for cut in range(len(lines) + 1):
        q.journal.path.write_bytes(b"".join(lines[:cut]))
        state = q.state()  # must never raise
        for cell in state.cells.values():
            assert cell.status in (PENDING, LEASED, DONE, FAILED)


def test_asdict_state_is_json_clean(tmp_path):
    q = _queue(tmp_path)
    q.submit([_spec(), _spec(app="fft")])
    q.claim("w1", now=0.0)
    view = asdict_state(q.state())
    json.dumps(view)
    assert view["counts"][PENDING] == 1 and view["counts"][LEASED] == 1
    assert not view["settled"]


def test_queue_validates_construction(tmp_path):
    with pytest.raises(ValueError, match="lease_duration"):
        SweepQueue(tmp_path / "s", lease_duration=0)
    with pytest.raises(ValueError, match="retry_budget"):
        SweepQueue(tmp_path / "s", retry_budget=0)


# --------------------------------------------------------- incremental fold
def test_reopened_queue_continues_a_mixed_history(tmp_path):
    """A queue opened on a busy journal folds it to the writer's state
    and makes the decisions the writer would have made."""
    writer = _queue(tmp_path)
    keys = _mixed_history(writer)
    queue = _queue(tmp_path)
    # done stays done even if a duplicate completion arrives
    queue.complete(keys[0], "w9", 7, executed=False)
    # the live lease on cell 1 still belongs to w2 and cell 2 is
    # terminal, so the only claimable cell is cell 3
    k, spec, attempt = queue.claim("w4", now=5000.0)
    assert (k, spec.app, attempt) == (keys[3], "fft", 1)
    state = queue.state()
    assert [state.cells[k].status for k in keys] == [
        DONE, LEASED, FAILED, LEASED,
    ]
    assert state.cells[keys[1]].worker == "w2"
    assert "crash" in state.cells[keys[2]].last_error
    assert state.cells[keys[2]].to_failed_spec().kind == "crash"
    assert state.cells[keys[2]].attempts == queue.retry_budget
    # the writer's fold catches up on the other queue's records
    with writer._folded() as folded:
        assert _state_view(folded) == _state_view(state)


def test_queue_operations_parse_each_record_a_bounded_number_of_times(
    tmp_path, monkeypatch
):
    """Queue work is linear in the journal: submitting 200 cells and
    claiming and completing each parses at most two lines per record
    (a whole-journal replay per claim would parse ~100 per record)."""
    parsed = []
    parse_line = journal_mod.parse_line

    def counting_parse_line(line):
        parsed.append(line)
        return parse_line(line)

    monkeypatch.setattr(journal_mod, "parse_line", counting_parse_line)
    q = _queue(tmp_path)
    q.submit([_spec(app_params={"cell": i}) for i in range(200)])
    for i in range(200):
        key, _, attempt = q.claim("w1", now=float(i))
        q.complete(key, "w1", attempt, executed=True)
    records = q.journal.path.read_bytes().count(b"\n")
    assert records == 600  # submit + lease + done per cell
    assert len(parsed) <= 2 * records


def test_unbuildable_spec_fails_alone(tmp_path):
    """A journaled spec this version cannot build (here: a field an
    older version had) fails its own cell; the rest of the sweep runs."""
    from repro.service.worker import Worker

    q = _queue(tmp_path)
    old = dict(spec_to_dict(_spec(app="fft")), compiled_traces=True)
    q.journal.append({"type": "submit", "key": "old-cell", "spec": old})
    (good,) = q.submit([_spec()])
    stats = Worker(q, cache=False, worker_id="w1", jobs=1).run()
    assert stats.executed == 1
    state = q.state()
    assert state.settled
    assert state.cells[good].status == DONE
    assert state.cells["old-cell"].status == FAILED
    (failed,) = q.failed_specs()
    assert failed.kind == "error" and failed.attempts == 1
    assert "compiled_traces" in failed.error
    assert failed.spec.app == "fft"


def test_compacted_journal_is_refused(tmp_path):
    """A ``snapshot`` record (older versions' compaction) stood for a
    whole cell; replaying past it would silently drop that cell."""
    q = _queue(tmp_path)
    q.submit([_spec()])
    q.journal.append({"type": "snapshot", "key": "k", "spec": {}})
    with pytest.raises(ValueError, match="'snapshot' record"):
        q.state()
    with pytest.raises(ValueError, match="'snapshot' record"):
        q.claim("w1", now=0.0)
