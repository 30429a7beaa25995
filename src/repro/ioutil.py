"""Atomic, durable file writes shared across the repo.

Every artifact the simulator persists — cache envelopes, JSON
exports, request schedules, service journals — must never
be observable half-written: a reader races a writer on the same path
(parallel batch workers share the caches), and a SIGKILL or power cut
can land between any two syscalls.  The pattern here is the standard
one: write to a temp file in the *same directory* (same filesystem, so
the rename is atomic), fsync the file so its bytes are durable before
the name is, then ``os.replace`` onto the destination and fsync the
directory so the new entry survives a crash too.
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path


def fsync_directory(path: "Path | str") -> None:
    """fsync a directory so a just-renamed entry is durable.

    Best-effort: some filesystems refuse fsync on a directory fd
    (EINVAL/EACCES); the rename itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError as exc:  # pragma: no cover - fs-dependent
        if exc.errno not in (errno.EINVAL, errno.EBADF, errno.EACCES):
            raise
    finally:
        os.close(fd)


def atomic_write_bytes(path: "Path | str", data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    A concurrent reader sees either the old contents or the new, never a
    prefix; a crash at any point leaves the old contents (plus at worst
    an orphaned ``*.tmp`` in the directory).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_text(
    path: "Path | str", text: str, encoding: str = "utf-8"
) -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))
