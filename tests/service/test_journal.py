"""The crash-safe journal: checksummed lines, tail tolerance, loud rot.

The journal's contract is asymmetric on purpose: damage a crash *can*
cause (an interrupted final append) is silently dropped with
``truncated_tail`` set, while damage a crash *cannot* cause (a torn
record mid-file) raises :class:`JournalCorruption` instead of letting
the state machine replay around missing history.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.service.journal import (
    Journal,
    JournalCorruption,
    parse_line,
    record_line,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ------------------------------------------------------------- line format
def test_record_line_roundtrip():
    rec = {"type": "lease", "key": "k", "attempt": 2, "pi": 3.25}
    assert parse_line(record_line(rec).rstrip(b"\n")) == rec


def test_parse_line_rejects_checksum_mismatch():
    line = record_line({"a": 1}).rstrip(b"\n")
    tampered = line[:-2] + b"2}"  # change the payload, keep the checksum
    with pytest.raises(ValueError, match="checksum"):
        parse_line(tampered)


def test_parse_line_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_line(b"short")
    with pytest.raises(ValueError):
        parse_line(b"0123456789abcdefX{}")  # no separating space
    payload = b'"just a string"'
    import hashlib

    digest = hashlib.sha256(payload).hexdigest()[:16].encode()
    with pytest.raises(ValueError, match="not an object"):
        parse_line(digest + b" " + payload)


# ------------------------------------------------------------ append/replay
def test_append_and_replay_preserve_order(tmp_path):
    j = Journal(tmp_path / "j.nwj")
    assert j.replay() == []  # missing file is an empty journal
    records = [{"type": "submit", "key": str(i)} for i in range(20)]
    for r in records[:10]:
        j.append(r)
    j.append_many(records[10:])
    assert j.replay() == records
    assert not j.truncated_tail
    assert len(j) == 20 and list(iter(j)) == records


def test_interrupted_append_is_dropped_as_tail(tmp_path):
    j = Journal(tmp_path / "j.nwj")
    j.append({"n": 1})
    j.append({"n": 2})
    # simulate a crash mid-append: a record cut before its newline
    with open(j.path, "ab") as fh:
        fh.write(record_line({"n": 3})[:-5])
    assert j.replay() == [{"n": 1}, {"n": 2}]
    assert j.truncated_tail


def test_damaged_final_complete_line_is_tail_damage(tmp_path):
    j = Journal(tmp_path / "j.nwj")
    j.append({"n": 1})
    with open(j.path, "ab") as fh:
        fh.write(b"0000000000000000 {}\n")  # bad checksum, with newline
    assert j.replay() == [{"n": 1}]
    assert j.truncated_tail


def test_mid_file_damage_raises_loudly(tmp_path):
    j = Journal(tmp_path / "j.nwj")
    for i in range(5):
        j.append({"n": i})
    raw = j.path.read_bytes()
    lines = raw.split(b"\n")
    lines[2] = lines[2][:20] + b"X" + lines[2][21:]  # flip a middle byte
    j.path.write_bytes(b"\n".join(lines))
    with pytest.raises(JournalCorruption, match="record 3/5"):
        j.replay()


@pytest.mark.parametrize(
    "damage",
    [record_line({"n": 9})[:-5], b"0000000000000000 {}\n"],
    ids=["incomplete", "bad-checksum"],
)
def test_appends_after_a_torn_tail_replay(tmp_path, damage):
    """A crashed writer's torn tail is cut by the next append, so every
    acknowledged record replays and the damage never moves mid-file."""
    j = Journal(tmp_path / "j.nwj")
    j.append_many([{"n": 1}, {"n": 2}])
    with open(j.path, "ab") as fh:
        fh.write(damage)
    # a fresh writer, as after a crash, and the one that saw it happen
    Journal(j.path).append({"a": 3})
    j.append({"a": 4})
    assert j.replay() == [{"n": 1}, {"n": 2}, {"a": 3}, {"a": 4}]
    assert not j.truncated_tail


def test_read_from_resumes_at_a_record_boundary(tmp_path):
    j = Journal(tmp_path / "j.nwj")
    assert j.read_from(0) == ([], 0)
    j.append_many([{"n": 1}, {"n": 2}])
    records, end = j.read_from(0)
    assert records == [{"n": 1}, {"n": 2}]
    assert end == j.path.stat().st_size
    j.append({"n": 3})
    with open(j.path, "ab") as fh:
        fh.write(record_line({"n": 4})[:-1])  # no newline yet
    assert j.read_from(end) == ([{"n": 3}], end + len(record_line({"n": 3})))
    assert j.truncated_tail


# ---------------------------------------------------------------- survival
@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_sigkill_mid_append_leaves_a_readable_prefix(tmp_path):
    """Kill a journal writer at an arbitrary instant: replay returns a
    valid prefix; at worst the final record is dropped as tail damage."""
    path = tmp_path / "j.nwj"

    def hammer():
        j = Journal(path)
        i = 0
        while True:
            i += 1
            j.append({"type": "submit", "key": f"k{i}", "pad": "x" * 20000})

    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=hammer, daemon=True)
    child.start()
    time.sleep(0.3)
    os.kill(child.pid, signal.SIGKILL)
    child.join()

    j = Journal(path)
    records = j.replay()  # must not raise
    assert records, "writer ran for a while; some records must survive"
    # the surviving prefix is gapless: k1, k2, ... in order
    assert [r["key"] for r in records] == [
        f"k{i}" for i in range(1, len(records) + 1)
    ]
