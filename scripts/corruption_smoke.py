#!/usr/bin/env python
"""End-to-end cache-corruption smoke test (used by CI).

Exercises the result cache's quarantine path against a live
simulation, outside pytest, the way an operator would hit it:

1. run one cell cold into a scratch result cache;
2. truncate and bit-flip the entry on disk;
3. re-run and verify the damage is quarantined to ``corrupt/`` with a
   warning, the cell recomputes to an identical result, and the fresh
   entry serves a clean hit.

Exits non-zero on the first violated expectation.
"""

import sys
import tempfile
import warnings
from pathlib import Path

from repro.core.batch import ExperimentSpec, run_batch
from repro.core.cache import CORRUPT_DIR, ResultCache
from repro.core.export import result_to_full_dict
from repro.core.runner import RunResult

SCALE = 0.05


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {what}")


def rerun_damaged(root: Path, spec: ExperimentSpec):
    """Re-run ``spec`` against a cache whose entry was just damaged."""
    cache = ResultCache(root)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (res,) = run_batch([spec], jobs=1, cache=cache)
    check(isinstance(res, RunResult), "damaged entry recomputed to a result")
    check(
        any("quarantined" in str(w.message) for w in caught),
        "corruption warned and quarantined",
    )
    check(
        any((root / CORRUPT_DIR).iterdir()),
        "damaged file preserved under corrupt/",
    )
    return res


def main() -> None:
    spec = ExperimentSpec("sor", "nwcache", "naive", data_scale=SCALE)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        print("result cache:")
        cache = ResultCache(root)
        (cold,) = run_batch([spec], jobs=1, cache=cache)
        check(isinstance(cold, RunResult), "cold run produced a result")
        fingerprint = result_to_full_dict(cold)
        entry = cache._path(spec.key())
        good = entry.read_bytes()

        entry.write_bytes(good[: len(good) // 2])
        res = rerun_damaged(root, spec)
        check(
            result_to_full_dict(res) == fingerprint,
            "recomputed result identical to the original",
        )

        flipped = bytearray(entry.read_bytes())
        flipped[-10] ^= 0xFF
        entry.write_bytes(bytes(flipped))
        rerun_damaged(root, spec)

        probe = ResultCache(root)
        check(probe.get(spec.key()) is not None, "repaired entry serves a hit")
        check(probe.stats()["hits"] == 1, "hit counted")

    print("corruption smoke: all checks passed")


if __name__ == "__main__":
    main()
