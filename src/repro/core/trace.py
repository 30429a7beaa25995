"""Compiled reference traces: array-backed streams shared in-process.

Every simulated run re-executes the application drivers as pure-Python
generators, and the standard-vs-NWCache pairing that produces the paper
tables regenerates the *identical* reference stream twice per pair (the
differential oracle asserts the streams are equal).  Fidelity lives in
the access stream, not in how it is produced — so this module compiles a
:class:`~repro.apps.base.Workload`'s streams **once** into compact NumPy
array-backed per-processor traces and replays them on every subsequent
run.

A :class:`CompiledTrace` stores five parallel columns per processor:

* ``kind``   — ``KIND_VISIT`` or ``KIND_BARRIER`` (uint8);
* ``page``   — app-local page id for visits, barrier-key index for
  barriers (int64; barriers are encoded inline, in stream order);
* ``reads`` / ``writes`` — access counts (int64);
* ``think``  — pure-compute cycles (float64).

Barrier keys (arbitrary hashables such as ``("sor", 3)``) are interned
into :attr:`CompiledTrace.barrier_keys` and referenced by index.  Pages
are stored app-local (compiled with ``page_base=0``); the replayer adds
the machine's load base, exactly as the drivers do.

Compilation is **trajectory-neutral**: decoding a compiled trace yields
exactly the item sequence the generator would have produced, so
simulation results are bit-identical either way (asserted per app in
``tests/core/test_trace_equivalence.py``).

In-process memo
---------------
Traces depend only on (workload class + parameters, n_nodes, seed), not
on the machine model, so :func:`get_trace` compiles each distinct input
once per process and shares the result: one compilation serves both
machines of an in-process pair and every later run in the process.
Batch and sweep cells run in child processes: a forked child inherits
whatever its parent had compiled and otherwise compiles its own trace.
Nothing is persisted, so a fresh process always compiles from the
drivers themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.apps.base import Item, Workload
from repro.core.keys import canonical
from repro.sim.rng import RngRegistry

#: ``kind`` column codes
KIND_VISIT = 0
KIND_BARRIER = 1


@dataclass
class CompiledTrace:
    """A workload's reference streams, flattened into parallel arrays."""

    app: str
    n_nodes: int
    page_size: int
    total_pages: int
    seed: int
    kinds: List[np.ndarray]           #: uint8 per-proc item kinds
    pages: List[np.ndarray]           #: int64 page ids / barrier indices
    reads: List[np.ndarray]           #: int64 read counts
    writes: List[np.ndarray]          #: int64 write counts
    thinks: List[np.ndarray]          #: float64 think cycles
    barrier_keys: List[Any] = field(default_factory=list)

    @property
    def n_items(self) -> int:
        """Total stream items across all processors."""
        return sum(len(k) for k in self.kinds)

    def columns(self, proc: int) -> tuple:
        """Processor ``proc``'s columns as plain-Python lists (cached).

        One bulk ``tolist()`` per column: element-wise numpy indexing
        would box per item, and plain ints/floats keep replay arithmetic
        bit-identical to the generator path.  The decode is cached so a
        standard/NWCache pair or a sweep pays it once per processor, not
        once per run (for the largest traces the decode would otherwise
        rival the simulation itself).
        """
        cache = self.__dict__.setdefault("_columns", {})
        cols = cache.get(proc)
        if cols is None:
            cols = cache[proc] = (
                self.kinds[proc].tolist(),
                self.pages[proc].tolist(),
                self.reads[proc].tolist(),
                self.writes[proc].tolist(),
                self.thinks[proc].tolist(),
            )
        return cols

    def items(self, proc: int, page_base: int = 0) -> Iterator[Item]:
        """Decode processor ``proc``'s stream back into driver items.

        With ``page_base=0`` this reproduces exactly what the workload's
        generator emitted at compile time (the equivalence the tests
        pin); a nonzero base relocates visits like the drivers do.
        """
        kinds, pages, reads, writes, thinks = self.columns(proc)
        barrier_keys = self.barrier_keys
        for i in range(len(kinds)):
            if kinds[i] == KIND_VISIT:
                yield ("visit", page_base + pages[i], reads[i], writes[i],
                       thinks[i])
            else:
                yield ("barrier", barrier_keys[pages[i]])

    def nbytes(self) -> int:
        """Approximate in-memory size of the array columns."""
        return sum(
            a.nbytes
            for cols in (self.kinds, self.pages, self.reads, self.writes,
                         self.thinks)
            for a in cols
        )


def workload_fingerprint(workload: Workload) -> Dict[str, Any]:
    """Canonical identity of a workload instance (class + parameters).

    ``vars(workload)`` captures every constructor-derived attribute
    (scale, page size, problem dimensions, …), so two instances built
    with the same arguments fingerprint identically while any parameter
    change produces a different trace key.
    """
    cls = type(workload)
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": workload.name,
        "params": canonical(vars(workload)),
    }


def trace_key(workload: Workload, n_nodes: int, seed: int) -> str:
    """Hex digest identifying one compiled trace's complete inputs."""
    import hashlib

    payload = {
        "workload": workload_fingerprint(workload),
        "n_nodes": int(n_nodes),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compile_workload(
    workload: Workload, n_nodes: int, seed: int
) -> CompiledTrace:
    """Run a workload's generators once and flatten them into arrays.

    Streams are generated with ``page_base=0`` against a fresh
    :class:`RngRegistry` seeded with ``seed``; because every driver draws
    only from its own named substreams (``app/<name>/node<i>``), the
    compiled items are bit-identical to what the same workload would emit
    inside a machine whose master seed is ``seed``.
    """
    rng = RngRegistry(seed)
    streams = workload.streams(n_nodes, 0, rng)
    if len(streams) != n_nodes:
        raise ValueError("app produced wrong number of streams")
    intern: Dict[Any, int] = {}
    barrier_keys: List[Any] = []
    kinds: List[np.ndarray] = []
    pages: List[np.ndarray] = []
    reads: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    thinks: List[np.ndarray] = []
    for stream in streams:
        k: List[int] = []
        p: List[int] = []
        r: List[int] = []
        w: List[int] = []
        t: List[float] = []
        for item in stream:
            kind = item[0]
            if kind == "visit":
                _, page, n_reads, n_writes, think = item
                k.append(KIND_VISIT)
                p.append(page)
                r.append(n_reads)
                w.append(n_writes)
                t.append(think)
            elif kind == "barrier":
                key = item[1]
                idx = intern.get(key)
                if idx is None:
                    idx = intern[key] = len(barrier_keys)
                    barrier_keys.append(key)
                k.append(KIND_BARRIER)
                p.append(idx)
                r.append(0)
                w.append(0)
                t.append(0.0)
            else:
                raise ValueError(f"unknown stream item {item!r}")
        kinds.append(np.asarray(k, dtype=np.uint8))
        pages.append(np.asarray(p, dtype=np.int64))
        reads.append(np.asarray(r, dtype=np.int64))
        writes.append(np.asarray(w, dtype=np.int64))
        thinks.append(np.asarray(t, dtype=np.float64))
    return CompiledTrace(
        app=workload.name,
        n_nodes=n_nodes,
        page_size=workload.page_size,
        total_pages=workload.total_pages,
        seed=int(seed),
        kinds=kinds,
        pages=pages,
        reads=reads,
        writes=writes,
        thinks=thinks,
        barrier_keys=barrier_keys,
    )


# ---------------------------------------------------------- in-process memo
#: compiled traces shared by every Machine in this process, keyed by digest
_memo: Dict[str, CompiledTrace] = {}


def clear_memo() -> None:
    """Drop the in-process trace memo (tests / long-lived servers)."""
    _memo.clear()


def get_trace(
    workload: Workload,
    n_nodes: int,
    seed: int,
    *,
    cache: Any = None,
) -> CompiledTrace:
    """The compiled trace for ``workload``, compiled at most once.

    Every caller in this process (say both machines of a ``run_pair``)
    shares one compilation per distinct (workload, n_nodes, seed).  ``cache`` has no effect: it remains only because
    ``perfbench/workloads.py`` still passes ``cache=False`` from the days
    of the on-disk trace cache, and goes when that file next changes
    (ROADMAP item 1).
    """
    key = trace_key(workload, n_nodes, seed)
    trace = _memo.get(key)
    if trace is None:
        trace = _memo[key] = compile_workload(workload, n_nodes, seed)
    return trace
