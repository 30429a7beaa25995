"""Crash-safe append-only journal: the sweep service's source of truth.

Every coordination action (submit, lease, renew, done, fail, requeue)
is one JSON record appended to a single journal file.  The format is
built so that *any* interruption — a worker SIGKILLed mid-append, a
host losing power, a truncated copy — degrades to a readable prefix,
never to silent corruption:

* each record is one line: ``<sha256[:16] of payload> <payload json>\\n``
  — a record is valid iff its checksum matches and it ends in a newline;
* appends happen under an exclusive :func:`flock` on a sidecar lock
  file, with the line written in a single ``write`` and fsync'd before
  the lock is released, so concurrent writers never interleave bytes
  and an acknowledged record survives the process;
* reads (:meth:`Journal.read_from`, and :meth:`Journal.replay` for the
  whole file) validate every line; a damaged or incomplete **tail**
  record (the only kind a crash can produce) is dropped with
  :attr:`Journal.truncated_tail` set, while a damaged record in the
  *middle* of the file — which no crash of this writer can produce —
  raises :class:`JournalCorruption` loudly;
* the next append cuts such a tail off before it writes, so the file
  only ever grows by whole records: nothing rewrites it, and a byte
  offset at a record boundary stays one for the journal's lifetime.

The journal itself is order-preserving but deliberately dumb: the
state-machine semantics (idempotence, lease arbitration) live in
:mod:`repro.service.lease`, which is what makes replaying a journal —
or replaying it twice, or replaying a prefix — safe.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.ioutil import fsync_directory

try:  # pragma: no cover - fcntl exists everywhere we support
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no locking)
    fcntl = None  # type: ignore[assignment]

#: length of the hex checksum prefix on every journal line
_SUM_LEN = 16


class JournalCorruption(Exception):
    """A non-tail journal record failed validation (see module doc)."""


def record_line(record: Dict[str, Any]) -> bytes:
    """Encode one record as a checksummed journal line."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    payload = body.encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()[:_SUM_LEN]
    return digest.encode("ascii") + b" " + payload + b"\n"


def parse_line(line: bytes) -> Dict[str, Any]:
    """Decode and validate one journal line; raises ValueError on damage."""
    if len(line) < _SUM_LEN + 2 or line[_SUM_LEN : _SUM_LEN + 1] != b" ":
        raise ValueError("malformed journal line")
    digest, payload = line[:_SUM_LEN], line[_SUM_LEN + 1 :]
    if hashlib.sha256(payload).hexdigest()[:_SUM_LEN].encode() != digest:
        raise ValueError("journal record checksum mismatch")
    record = json.loads(payload)
    if not isinstance(record, dict):
        raise ValueError("journal record is not an object")
    return record


@contextmanager
def locked(lock_path: Path):
    """Exclusive advisory lock scoped to the ``with`` block.

    Serializes the read-decide-append critical sections of every queue
    operation across processes sharing the directory.  On platforms
    without ``fcntl`` the lock degrades to a no-op (single-writer use
    still works; the journal's per-record checksums still hold).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        # closing releases the flock
        os.close(fd)


class Journal:
    """One append-only checksummed record log (see module doc).

    Parameters
    ----------
    path:
        The journal file.  The sidecar ``<path>.lock`` file carries the
        cross-process flock; both live in the sweep directory.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        #: set by the last read: a damaged/incomplete final record was
        #: dropped (the fingerprint of an interrupted append)
        self.truncated_tail = False
        #: a record boundary this object has read or written up to; an
        #: append that finds the file longer validates from here
        self._end = 0

    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------- writing
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (exclusive lock + single write + fsync)."""
        with locked(self.lock_path):
            self._append_unlocked([record])

    def append_many(self, records: List[Dict[str, Any]]) -> None:
        """Durably append several records under one lock acquisition."""
        if not records:
            return
        with locked(self.lock_path):
            self._append_unlocked(records)

    def _append_unlocked(self, records: List[Dict[str, Any]]) -> int:
        """Write ``records`` after the last valid record; return the new
        end offset.  The caller holds the lock.

        A torn tail left by a writer that crashed mid-append is cut off
        first: writing after it would hide the new records behind the
        damage, and the append after that would turn it into mid-file
        damage that no replay gets past.
        """
        data = b"".join(record_line(r) for r in records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        first_write = not self.path.exists()
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            size = os.fstat(fd).st_size
            end = self._end
            if size != end:
                # bytes this object has not validated: other writers'
                # records, or a torn tail (a file shorter than ``end``
                # was deleted and recreated, so read it all)
                end = self.read_from(end if end < size else 0)[1]
                if end < size:
                    os.ftruncate(fd, end)
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        if first_write:
            fsync_directory(self.path.parent)
        self._end = end + len(data)
        return self._end

    # ------------------------------------------------------------- reading
    def read_from(self, offset: int) -> Tuple[List[Dict[str, Any]], int]:
        """Every valid record from byte ``offset`` (a record boundary)
        on, and the byte just past the last of them.

        Tolerates exactly the damage a crash can cause: a final record
        that is incomplete (no newline) or checksum-corrupt is dropped
        and :attr:`truncated_tail` is set.  Damage anywhere *before* the
        tail raises :class:`JournalCorruption` — that is bit rot or a
        foreign writer, and silently skipping records would let the
        state machine resurrect work that was already accounted for.
        """
        self.truncated_tail = False
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read()
        except FileNotFoundError:
            return [], 0
        records: List[Dict[str, Any]] = []
        end = offset
        lines = raw.split(b"\n")
        # a well-formed file ends with a newline, so the final split
        # element is empty; anything else is an interrupted append
        complete, tail = lines[:-1], lines[-1]
        if tail:
            self.truncated_tail = True
        for i, line in enumerate(complete):
            try:
                records.append(parse_line(line))
            except ValueError as exc:
                if i == len(complete) - 1:
                    # damaged final *complete* line: an append that was
                    # cut inside the line but after a stray newline, or
                    # a torn sector at the end — still tail damage
                    self.truncated_tail = True
                    break
                raise JournalCorruption(
                    f"{self.path}: record {i + 1}/{len(complete)} from "
                    f"byte {offset} is damaged ({exc}); refusing to "
                    f"read past it"
                ) from exc
            end += len(line) + 1
        self._end = end
        return records, end

    def replay(self) -> List[Dict[str, Any]]:
        """Every valid record, in append order (see :meth:`read_from`)."""
        return self.read_from(0)[0]

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.replay())

    def __len__(self) -> int:
        return len(self.replay())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({str(self.path)!r})"

