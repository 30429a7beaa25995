"""Properties of the sweep journal and its replayed state machine.

Four contracts back every crash-recovery claim the service makes, and
Hypothesis drives each across arbitrary histories:

* **line safety** — any JSON record survives ``record_line`` /
  ``parse_line``, and any *byte* truncation of a journal file replays
  to a clean prefix (tail damage is dropped, never propagated);
* **duplication idempotence** — folding an entire history in twice
  (what a replaying worker that crashed mid-append effectively does)
  changes nothing observable;
* **merge convergence** — for records whose effects are commutative
  (done / fail marks), any interleaving converges to the same outcome:
  a cell with a ``done`` record anywhere ends done, and per-attempt
  marks never double-count executions;
* **compaction exactness** — one snapshot record per cell folds back
  into exactly the state it was taken from.
"""

import dataclasses
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.journal import Journal, parse_line, record_line
from repro.service.lease import DONE, SweepState, snapshot_record

# ----------------------------------------------------------------- strategies
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
records = st.dictionaries(st.text(min_size=1, max_size=8), json_values,
                          min_size=1, max_size=5)

keys = st.sampled_from(["cell-a", "cell-b", "cell-c"])
workers = st.sampled_from(["w1", "w2"])
attempts = st.integers(min_value=1, max_value=3)
times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
#: a fail record's kind; older journals' records carry none
fail_kinds = st.sampled_from(["error", "crash", "timeout", None])


@st.composite
def cell_ops(draw):
    """One non-submit record against a known cell."""
    key = draw(keys)
    kind = draw(st.sampled_from(["lease", "renew", "done", "fail", "requeue"]))
    if kind == "lease":
        return {"type": "lease", "key": key, "worker": draw(workers),
                "attempt": draw(attempts), "expires": draw(times)}
    if kind == "renew":
        return {"type": "renew", "key": key, "worker": draw(workers),
                "expires": draw(times)}
    if kind == "done":
        return {"type": "done", "key": key, "worker": draw(workers),
                "attempt": draw(attempts),
                "executed": draw(st.booleans())}
    if kind == "fail":
        rec = {"type": "fail", "key": key, "worker": draw(workers),
               "attempt": draw(attempts), "error": "boom",
               "terminal": draw(st.booleans()),
               "not_before": draw(times)}
        fail_kind = draw(fail_kinds)
        if fail_kind is not None:
            rec["kind"] = fail_kind
        return rec
    return {"type": "requeue", "key": key, "worker": draw(workers),
            "expires": draw(times)}


def _submits():
    return [
        {"type": "submit", "key": k, "spec": {"app": "sor"}}
        for k in ("cell-a", "cell-b", "cell-c")
    ]


def _fold(recs):
    state = SweepState()
    for rec in recs:
        state.apply(rec)
    return state


def _observable(state):
    return {
        key: (
            cell.status,
            cell.attempts,
            cell.executed_runs,
            frozenset(cell.done_marks),
            frozenset(cell.fail_marks),
            cell.last_kind,
        )
        for key, cell in state.cells.items()
    }


# ----------------------------------------------------------------- line layer
@given(rec=records)
def test_record_line_roundtrips_any_json_object(rec):
    line = record_line(rec)
    assert line.endswith(b"\n")
    assert parse_line(line.rstrip(b"\n")) == rec


@given(recs=st.lists(records, min_size=1, max_size=8),
       data=st.data())
@settings(max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_byte_truncation_replays_to_a_clean_prefix(tmp_path, recs, data):
    # tmp_path reuse across examples is fine: the file is recreated
    # from scratch (unlink + append) on every input
    path = tmp_path / "j.nwj"
    path.unlink(missing_ok=True)
    j = Journal(path)
    j.append_many(recs)
    raw = path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut")
    path.write_bytes(raw[:cut])
    survived = Journal(path).replay()  # must never raise
    assert survived == recs[: len(survived)], "survivors form a prefix"
    # at most the single record straddling the cut is lost
    assert len(survived) >= sum(
        1 for i in range(1, len(recs) + 1)
        if len(b"".join(record_line(r) for r in recs[:i])) <= cut
    )


# ---------------------------------------------------------------- state layer
@given(ops=st.lists(cell_ops(), max_size=20))
@settings(max_examples=100)
def test_replay_is_idempotent_under_full_duplication(ops):
    history = _submits() + ops
    once = _fold(history)
    twice = _fold(history + history)
    assert _observable(once) == _observable(twice)


@given(ops=st.lists(cell_ops(), max_size=20))
@settings(max_examples=100)
def test_compaction_snapshots_fold_to_the_same_state(ops):
    """Compaction rewrites a journal as one snapshot record per cell;
    folding those must rebuild every field of every cell exactly."""
    state = _fold(_submits() + ops)
    compacted = _fold([snapshot_record(state.cells[k]) for k in state.order])
    assert compacted.order == state.order
    for key in state.order:
        assert dataclasses.asdict(compacted.cells[key]) == dataclasses.asdict(
            state.cells[key]
        )


@given(ops=st.lists(cell_ops(), max_size=16), data=st.data())
@settings(max_examples=100)
def test_done_and_marks_converge_under_any_interleaving(ops, data):
    """Shuffle the post-submit history: outcome-level facts (done-ness,
    execution accounting, fail marks) are order-free even though lease
    arbitration details (which worker holds an open lease) are not."""
    shuffled = data.draw(st.permutations(ops), label="shuffled")
    a = _fold(_submits() + ops)
    b = _fold(_submits() + shuffled)
    done_recs = {op["key"] for op in ops if op["type"] == "done"}
    for key in ("cell-a", "cell-b", "cell-c"):
        ca, cb = a.cells[key], b.cells[key]
        assert ca.done_marks == cb.done_marks
        assert ca.fail_marks == cb.fail_marks
        assert ca.executed_runs == cb.executed_runs
        assert ca.attempts == cb.attempts
        if key in done_recs:  # done is absorbing in every ordering
            assert ca.status == cb.status == DONE


@given(ops=st.lists(cell_ops(), max_size=20))
@settings(max_examples=50)
def test_every_journal_prefix_is_a_valid_state(ops):
    """A crash can leave any prefix of the history on disk; each one
    must fold into a well-formed state (no exceptions, sane invariants)."""
    history = _submits() + ops
    for cut in range(len(history) + 1):
        state = _fold(history[:cut])
        for cell in state.cells.values():
            assert cell.executed_runs <= len(cell.done_marks)
            assert cell.attempts >= 0
            json.dumps(cell.spec)
