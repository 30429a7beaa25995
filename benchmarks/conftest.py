"""Shared benchmark infrastructure.

Every paper table/figure has a ``bench_*`` module here.  Benchmarks run
the evaluation at ``NWCACHE_BENCH_SCALE`` of the paper's data size
(default 0.2 so the whole suite finishes in a couple of minutes; set it
to 1.0 to regenerate the full-size numbers recorded in EXPERIMENTS.md).

The (app, system, prefetch) simulation results are cached at two levels:

* per pytest session, because several tables report different statistics
  of the same runs — the first benchmark needing a batch pays for it, and
  it pays with :func:`repro.core.batch.run_batch`, which fans the grid
  out across one worker process per core;
* persistently, via the content-addressed on-disk
  :class:`repro.core.cache.ResultCache`, so re-running the suite with an
  unchanged simulator is I/O-bound.  Set ``NWCACHE_NO_CACHE=1`` to
  disable (e.g. after model changes without a cache-version bump), and
  ``NWCACHE_CACHE_DIR`` to relocate the cache.

Rendered tables are printed and also written to ``benchmarks/output/``.
"""

import os
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.apps import APP_NAMES
from repro.core.batch import ExperimentSpec, run_batch
from repro.core.machine import RunResult

#: fraction of the paper's data size the benches simulate
SCALE = float(os.environ.get("NWCACHE_BENCH_SCALE", "0.2"))

OUTPUT_DIR = Path(__file__).parent / "output"


def _disk_cache_arg():
    """run_batch ``cache`` argument honoring NWCACHE_NO_CACHE."""
    if os.environ.get("NWCACHE_NO_CACHE"):
        return False
    return None


class SimCache:
    """Session-wide cache of simulation runs (disk-cache backed)."""

    def __init__(self) -> None:
        self._runs: Dict[Tuple[str, str, str], RunResult] = {}

    def _batch(self, cells) -> None:
        """Run every not-yet-seen cell in one parallel, cached batch."""
        todo = [c for c in cells if c not in self._runs]
        if not todo:
            return
        specs = [ExperimentSpec(app, system, prefetch, data_scale=SCALE)
                 for app, system, prefetch in todo]
        for cell, res in zip(todo, run_batch(specs, cache=_disk_cache_arg())):
            self._runs[cell] = res

    def run(self, app: str, system: str, prefetch: str) -> RunResult:
        key = (app, system, prefetch)
        if key not in self._runs:
            self._batch([key])
        return self._runs[key]

    def pairs(self, prefetch: str) -> Dict[str, Tuple[RunResult, RunResult]]:
        """(standard, nwcache) result pairs for every Table 2 app."""
        self._batch([(app, system, prefetch)
                     for app in APP_NAMES
                     for system in ("standard", "nwcache")])
        return {
            app: (
                self.run(app, "standard", prefetch),
                self.run(app, "nwcache", prefetch),
            )
            for app in APP_NAMES
        }


@pytest.fixture(scope="session")
def sim_cache() -> SimCache:
    return SimCache()


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
