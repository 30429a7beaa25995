"""Content-addressed on-disk cache of simulation results.

A simulation is a pure function of its inputs: the machine configuration,
the workload identity (app name, scale, app parameters), the system
variant, the prefetcher, and the drain policy.  :func:`cache_key` hashes
exactly those inputs (plus a format version), so a :class:`ResultCache`
can return a previously pickled :class:`~repro.core.machine.RunResult`
instead of re-simulating — re-running a bench suite or a sweep with
unchanged inputs becomes I/O-bound instead of CPU-bound.

Cache location, in priority order:

1. ``NWCACHE_CACHE_DIR`` environment variable;
2. ``$XDG_CACHE_HOME/nwcache`` when ``XDG_CACHE_HOME`` is set;
3. ``~/.cache/nwcache``.

Invalidation: the key covers every simulation *input* but not the
simulator's *code*.  :data:`CACHE_FORMAT_VERSION` is bumped whenever a
model change alters results; after local model hacking, clear the cache
(``ResultCache.default().clear()`` or ``rm -rf`` the directory) or run
with caching disabled (``--no-cache`` on the CLI and scripts).

Robustness: entries are written inside a checksummed envelope (magic,
format version, SHA-256 of the payload, payload).  A file that fails any
validation step on load — truncated, bit-flipped, wrong type, foreign
format — is *quarantined* to ``<cache>/corrupt/`` with a warning and
treated as a miss, so a damaged cache degrades to recomputation instead
of crashing the batch that touched it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Any, Dict, Optional

from repro.config import SimConfig
from repro.core.keys import canonical
from repro.core.machine import RunResult
from repro.ioutil import atomic_write_bytes

#: Bump when a simulator change alters results for identical inputs.
#: v2: audit fields on SimConfig; order-stable canonicalization of
#: mixed-key dicts and sets (repr of a set depends on PYTHONHASHSEED).
#: v3: checksummed envelope on disk; ``faults`` on SimConfig and
#: ``Metrics.faults`` accounting (old pickles lack both).
#: v4: ``epoch_*`` profiler extras on epoch-executed results (old
#: pickles lack the rejection counters).
#: v5: ``ring_stored_peak`` is a real high-water mark (it was the
#: end-of-run occupancy) and the epoch profiler extras are gone.
CACHE_FORMAT_VERSION = 5

#: name of the quarantine directory inside a cache root
CORRUPT_DIR = "corrupt"

_RESULT_MAGIC = "nwcache-result"


class CorruptCacheEntry(Exception):
    """An on-disk cache entry failed envelope validation."""


def write_envelope(path: Path, magic: str, version: int, obj: Any) -> None:
    """Atomically write ``obj`` wrapped in a checksummed envelope.

    The envelope is a pickled tuple ``(magic, version, sha256(blob),
    blob)`` where ``blob`` is the pickled payload — enough redundancy to
    distinguish truncation, corruption, and foreign files on load.
    """
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    payload = (magic, version, hashlib.sha256(blob).hexdigest(), blob)
    atomic_write_bytes(
        path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def read_envelope(path: Path, magic: str, version: int) -> Any:
    """Load and validate an envelope written by :func:`write_envelope`.

    Raises FileNotFoundError on a plain miss and
    :class:`CorruptCacheEntry` on any validation failure (unreadable
    pickle, bad magic, version mismatch, checksum mismatch).
    """
    try:
        with path.open("rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CorruptCacheEntry(f"unreadable envelope: {exc!r}") from exc
    if not (isinstance(payload, tuple) and len(payload) == 4):
        raise CorruptCacheEntry("bad envelope structure")
    got_magic, got_version, digest, blob = payload
    if got_magic != magic:
        raise CorruptCacheEntry(f"bad magic {got_magic!r}")
    if got_version != version:
        raise CorruptCacheEntry(
            f"format version {got_version!r} != expected {version}"
        )
    if (
        not isinstance(blob, bytes)
        or hashlib.sha256(blob).hexdigest() != digest
    ):
        raise CorruptCacheEntry("payload checksum mismatch")
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CorruptCacheEntry(f"unreadable payload: {exc!r}") from exc


def quarantine(path: Path, root: Path, reason: str) -> None:
    """Move a corrupt cache file into ``<root>/corrupt/`` with a warning.

    The entry then reads as a miss, so callers recompute; the file is
    preserved for inspection rather than silently deleted.
    """
    qdir = root / CORRUPT_DIR
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, qdir / path.name)
        moved = True
    except OSError:
        moved = False
        try:
            path.unlink()
        except OSError:
            pass
    warnings.warn(
        f"quarantined corrupt cache entry {path.name} ({reason})"
        + ("" if moved else "; move failed, entry deleted"),
        RuntimeWarning,
        stacklevel=3,
    )


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment (see module doc)."""
    env = os.environ.get("NWCACHE_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "nwcache"


def cache_key(
    cfg: SimConfig,
    app: str,
    system: str,
    prefetch: str,
    drain_policy: str = "most-loaded",
    data_scale: float = 1.0,
    app_params: Optional[Dict[str, Any]] = None,
) -> str:
    """Hex digest identifying one simulation cell's complete inputs."""
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "cfg": canonical(dataclasses.asdict(cfg)),
        "app": app,
        "system": system,
        "prefetch": prefetch,
        "drain_policy": drain_policy,
        "data_scale": repr(float(data_scale)),
        "app_params": canonical(app_params or {}),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-backed store of :class:`RunResult` keyed by input digest.

    Thread/process safe for concurrent writers: entries are written to a
    temp file and atomically renamed, so readers never see partial data.
    """

    def __init__(self, directory: "Path | str | None" = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache at the environment-resolved default location."""
        return cls()

    def _path(self, key: str) -> Path:
        # Two-level fanout keeps directories small for big sweep grids.
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[RunResult]:
        """Return the cached result for ``key``, or None on a miss.

        Corrupt or foreign entries are quarantined (see module doc) and
        read as misses — the caller recomputes.
        """
        path = self._path(key)
        try:
            res = read_envelope(path, _RESULT_MAGIC, CACHE_FORMAT_VERSION)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        except CorruptCacheEntry as exc:
            quarantine(path, self.directory, str(exc))
            self.misses += 1
            return None
        if not isinstance(res, RunResult):
            quarantine(path, self.directory, "payload is not a RunResult")
            self.misses += 1
            return None
        self.hits += 1
        return res

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (atomic, last-writer-wins)."""
        write_envelope(
            self._path(key), _RESULT_MAGIC, CACHE_FORMAT_VERSION, result
        )

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _entries(self):
        # The quarantine directory sits beside the two-level fanout, so
        # its files match the same glob and must be excluded.
        return (
            p
            for p in self.directory.glob("*/*.pkl")
            if p.parent.name != CORRUPT_DIR
        )

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed.

        Quarantined files are left in place (they are not entries)."""
        n = 0
        if not self.directory.exists():
            return 0
        for entry in list(self._entries()):
            try:
                entry.unlink()
                n += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return n

    def stats(self) -> Dict[str, int]:
        """Session hit/miss counters (not persisted)."""
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache({str(self.directory)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
