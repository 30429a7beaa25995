"""Shared test fixtures: tiny machines and synthetic workloads."""

import os
from typing import List, Optional

import pytest

# Keep the suite hermetic: never read or write the user's on-disk trace
# cache (a stale trace would mask driver changes; compilation at test
# scale is cheap and the in-process memo still shares work).  Tests that
# exercise the disk layer pass an explicit TraceCache or set the
# variable themselves.
os.environ.setdefault("NWCACHE_TRACE_CACHE", "0")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite tests/regression/golden snapshots instead of comparing",
    )

from repro.apps.base import Stream, Workload, barrier, block_range, visit
from repro.config import SimConfig
from repro.core.machine import Machine


class SyntheticWorkload(Workload):
    """A configurable page-walking workload for unit tests.

    Each processor sweeps its own contiguous block of ``n_pages`` pages
    ``sweeps`` times, doing ``accesses`` reads (plus writes when
    ``write=True``) per visit, with a barrier after each sweep.
    """

    name = "synthetic"

    def __init__(
        self,
        n_pages: int = 64,
        sweeps: int = 2,
        accesses: int = 64,
        write: bool = True,
        shared: bool = False,
        think: float = 100.0,
        page_size: int = 4096,
        use_barriers: bool = True,
    ) -> None:
        super().__init__(page_size=page_size)
        self.n_pages = n_pages
        self.sweeps = sweeps
        self.accesses = accesses
        self.write = write
        self.shared = shared
        self.think = think
        self.use_barriers = use_barriers

    @property
    def total_pages(self) -> int:
        return self.n_pages

    def streams(self, n_nodes: int, page_base: int, rng) -> List[Stream]:
        return [self._stream(n_nodes, n, page_base) for n in range(n_nodes)]

    def _stream(self, n_nodes: int, node: int, base: int) -> Stream:
        if self.shared:
            pages = range(self.n_pages)  # everyone touches everything
        else:
            pages = block_range(self.n_pages, n_nodes, node)
        writes = self.accesses if self.write else 0
        reads = self.accesses
        for s in range(self.sweeps):
            for p in pages:
                yield visit(base + p, reads, writes, self.think)
            if self.use_barriers:
                yield barrier(("sweep", s))


def tiny_machine(
    system: str = "standard",
    prefetch: str = "optimal",
    **cfg_overrides,
) -> Machine:
    """A 4-node test machine (8 frames/node) with optional overrides."""
    cfg = SimConfig.tiny(**cfg_overrides)
    return Machine(cfg, system=system, prefetch=prefetch)


#: the one extra only the compiled path publishes: it counts the heap
#: events the clock jumps replaced, i.e. how the run was executed
JUMPED = "epoch_events_jumped"


def _fields(obj):
    """A stats object's exact field values (their reprs round)."""
    slots = getattr(type(obj), "__slots__", ())
    return {name: getattr(obj, name) for name in slots} if slots else obj


def result_snapshot(res) -> str:
    """Everything a :class:`RunResult` says about the simulated machine,
    bit for bit: every field, metrics tallies and per-CPU accounts
    included, minus the compiled path's jump counter."""
    d = dict(vars(res))
    d["metrics"] = {k: _fields(v) for k, v in vars(res.metrics).items()}
    d["combining"] = _fields(res.combining)
    d["per_cpu"] = [_fields(a) for a in res.per_cpu]
    d["extras"] = {k: v for k, v in res.extras.items() if k != JUMPED}
    return repr(d)


def assert_paths_identical(generator, compiled) -> None:
    """The compiled path's contract: its result is the generator
    path's, bit for bit; only the jump counter tells them apart."""
    assert JUMPED not in generator.extras
    assert JUMPED in compiled.extras
    assert result_snapshot(generator) == result_snapshot(compiled)


def run_both_paths(
    system: str = "standard",
    cfg_kwargs: Optional[dict] = None,
    workload=SyntheticWorkload,
    **wl_kwargs,
):
    """Run one workload on a tiny machine through the generator path
    and the compiled path; assert bit-identical results and return the
    compiled run's."""
    results = {}
    for compiled in (False, True):
        cfg = SimConfig.tiny(**(cfg_kwargs or {}))
        machine = Machine(cfg, system=system, compiled_traces=compiled)
        results[compiled] = machine.run(workload(**wl_kwargs))
    assert_paths_identical(results[False], results[True])
    return results[True]


@pytest.fixture
def make_machine():
    return tiny_machine


@pytest.fixture
def make_workload():
    return SyntheticWorkload
