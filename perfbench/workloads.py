"""The benchmark's four workloads, their output checks and their numbers.

Each workload is a fixed set of simulation cells run closed-loop, one
after another, in one process, through the simulator's public entry
points only (``run_experiment``, ``SweepQueue``/``Worker``,
``get_trace``) with every simulator option at its default.  Why each
workload exists is recorded in its ``why`` line and in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.apps import make_app
from repro.core import paper_data
from repro.core.export import result_to_full_dict
from repro.core.machine import SYSTEM_NWCACHE, SYSTEM_STANDARD, RunResult
from repro.core.runner import experiment_config, linear_scale, run_experiment
from repro.core.trace import get_trace

#: the seed service specs always run at (they carry no ``cfg``)
DEFAULT_SEED = 1999

SYSTEMS = (SYSTEM_STANDARD, SYSTEM_NWCACHE)

Cell = Tuple[str, str, str]  # (app, system, prefetch)
Results = Dict[Cell, RunResult]


def cell_name(cell: Cell) -> str:
    return "/".join(cell)


class Workload:
    """A named, fixed list of cells at one data scale."""

    name = ""
    why = ""
    scale = 1.0
    #: whether ``--seed`` reaches ``SimConfig.seed``
    seeded = True
    #: the paper-error metrics this workload's cells can be compared on
    paper_errors: Tuple[str, ...] = ()

    def cells(self) -> List[Cell]:
        raise NotImplementedError

    def apps(self) -> List[str]:
        return sorted({app for app, _system, _prefetch in self.cells()})

    def compile_traces(self, seed: int) -> None:
        """Compile every distinct reference trace (on-disk cache off)."""
        cfg = experiment_config(self.scale, seed=self.effective_seed(seed))
        for app in self.apps():
            workload = make_app(
                app, scale=linear_scale(app, self.scale), page_size=cfg.page_size
            )
            get_trace(workload, cfg.n_nodes, cfg.seed, cache=False)

    def effective_seed(self, seed: int) -> int:
        return seed if self.seeded else DEFAULT_SEED

    def prepare(self, seed: int, workdir: Path) -> Any:
        """Per-pass set-up outside the timed region (default: none)."""
        return None

    def run_cell(self, cell: Cell, seed: int) -> RunResult:
        """One cell at ``seed``, through ``run_experiment``."""
        app, system, prefetch = cell
        cfg = experiment_config(self.scale, seed=seed)
        return run_experiment(app, system, prefetch, data_scale=self.scale, cfg=cfg)

    def execute(self, seed: int, handle: Any) -> Any:
        """Run every cell: the timed region."""
        return {cell: self.run_cell(cell, seed) for cell in self.cells()}

    def collect(self, handle: Any, done: Any) -> Tuple[Results, List[str]]:
        """The results of :meth:`execute` and any harness problems."""
        return done, []


class PaperScale(Workload):
    name = "paper-scale"
    why = (
        "Figure 3 apps at the paper's data size (scale 1.0), optimal "
        "prefetching: long compute phases load the epoch executor and sim kernel"
    )
    #: fft and gauss are left out: together they take ~39 s at scale 1.0
    APPS = ("em3d", "lu", "mg", "radix", "sor")
    #: Figure 3's numbers only apply at the paper's data size
    paper_errors = ("fig3_error_pp",)

    def cells(self) -> List[Cell]:
        return [(app, system, "optimal") for app in self.APPS for system in SYSTEMS]


class GridBench(Workload):
    name = "grid-bench"
    why = (
        "the paper's 28-cell grid at scale 0.1 through a fresh SweepQueue, "
        "one Worker and a fresh ResultCache: the only harness workload"
    )
    scale = 0.1
    seeded = False
    paper_errors = ("table8_error_pp",)
    PREFETCHES = ("optimal", "naive")

    def cells(self) -> List[Cell]:
        return [
            (app, system, prefetch)
            for app in paper_data.APP_ORDER
            for system in SYSTEMS
            for prefetch in self.PREFETCHES
        ]

    def prepare(self, seed: int, workdir: Path) -> Any:
        from repro.core.batch import ExperimentSpec
        from repro.core.cache import ResultCache
        from repro.service import SweepQueue

        queue = SweepQueue(workdir / "sweep")
        specs = [
            ExperimentSpec(app, system, prefetch, data_scale=self.scale)
            for app, system, prefetch in self.cells()
        ]
        keys = queue.submit(specs)
        return queue, dict(zip(keys, self.cells())), ResultCache(workdir / "results")

    def execute(self, seed: int, handle: Any) -> Any:
        from repro.service import Worker

        queue, _cell_of, cache = handle
        return Worker(queue, cache=cache).run()

    def collect(self, handle: Any, stats: Any) -> Tuple[Results, List[str]]:
        queue, cell_of, cache = handle
        problems = []
        state = queue.state()
        if not state.settled:
            problems.append(f"sweep not settled: {state.counts()}")
        if stats.executed != len(cell_of) or stats.cached or stats.failed:
            problems.append(
                f"worker executed {stats.executed}, cached {stats.cached}, "
                f"failed {stats.failed} of {len(cell_of)} cells"
            )
        failed = queue.failed_specs()
        if failed:
            problems.append(f"{len(failed)} cells failed in the sweep")
        results = {
            cell_of[key]: res for key, res in queue.results(cache).items()
        }
        return results, problems


class Ycsb(Workload):
    """An open-loop YCSB pair at scale 1.0 with the generator defaults:
    Poisson arrivals at 100 req/Mcycle/node, Zipf 0.8 over 2048 pages,
    8 nodes x (600 warmup + 3000 measured) requests."""

    APP = ""

    def cells(self) -> List[Cell]:
        return [(self.APP, system, "optimal") for system in SYSTEMS]


class YcsbUpdate(Ycsb):
    name = "ycsb-update"
    why = (
        "YCSB-A (50% update) open-loop pair: busy write path (swap-outs, "
        "ring hits, disk) and the contended epoch machinery"
    )
    APP = "ycsb-a"


class YcsbRead(Ycsb):
    name = "ycsb-read"
    why = (
        "YCSB-C (100% read) open-loop pair: same VM fault path with the "
        "write path idle, the control for swap/ring/disk/epoch changes"
    )
    APP = "ycsb-c"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperScale(), GridBench(), YcsbUpdate(), YcsbRead())
}


# ------------------------------------------------------------------ checks
def check_cell(res: Any) -> List[str]:
    """Problems with one cell's result (empty when it is sound)."""
    if not isinstance(res, RunResult):
        return [f"not a RunResult: {type(res).__name__}"]
    problems = []
    if not (math.isfinite(res.exec_time) and res.exec_time > 0):
        problems.append(f"exec_time {res.exec_time!r}")
    bad = {
        k: v
        for k, v in res.breakdown.items()
        if not (math.isfinite(v) and v >= 0)
    }
    if bad:
        problems.append(f"breakdown {bad}")
    offered = res.extras.get("openloop_offered_requests")
    if offered is not None:
        completed = res.extras.get("openloop_completed_requests")
        if completed != offered:
            problems.append(f"completed {completed} of {offered} requests")
    return problems


def check_results(
    workload: Workload, results: Results, problems: Sequence[str]
) -> Dict[str, List[str]]:
    """Problems per cell (plus ``"harness"``); only failing entries."""
    out: Dict[str, List[str]] = {}
    for cell in workload.cells():
        res = results.get(cell)
        found = ["missing"] if res is None else check_cell(res)
        if found:
            out[cell_name(cell)] = found
    if problems:
        out["harness"] = list(problems)
    return out


def fingerprint(res: RunResult) -> str:
    """Digest of every simulated statistic of one cell."""
    blob = json.dumps(result_to_full_dict(res), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprints(results: Results) -> Dict[str, str]:
    return {cell_name(cell): fingerprint(res) for cell, res in results.items()}


# ---------------------------------------------------------------- fidelity
def fig3_error_pp(exec_times: Dict[str, Tuple[float, float]]) -> float:
    """Mean gap (percentage points) to Figure 3's NWCache improvement.

    ``exec_times`` maps app -> (standard, nwcache) execution time under
    optimal prefetching.  Apps the paper states a figure for are compared
    with it; the rest are only stated as "> 28%", so their gap is how far
    the measured improvement falls short of 28.
    """
    gaps = []
    for app, (std, nwc) in exec_times.items():
        measured = 100.0 * (1.0 - nwc / std)
        paper = paper_data.FIG3_IMPROVEMENT_OPTIMAL_PCT[app]
        if paper is None:
            gaps.append(max(0.0, paper_data.FIG3_MIN_EXCEPT_EM3D_PCT - measured))
        else:
            gaps.append(abs(measured - paper))
    return sum(gaps) / len(gaps)


def table8_error_pp(latencies: Dict[str, Tuple[float, float]]) -> float:
    """Mean |measured - Table 8| disk-hit-latency reduction (pp).

    ``latencies`` maps app -> (standard, nwcache) mean fault latency of
    disk-cache hits under naive prefetching.
    """
    gaps = []
    for app, (std, nwc) in latencies.items():
        measured = 100.0 * (1.0 - nwc / std)
        paper = paper_data.TABLE8_DISK_HIT_LATENCY_KPC[app][2]
        gaps.append(abs(measured - paper))
    return sum(gaps) / len(gaps)


def _pairs(results: Results, prefetch: str, field: str) -> Dict[str, Tuple[float, float]]:
    out = {}
    for (app, system, pf), res in results.items():
        if pf != prefetch or system != SYSTEM_STANDARD:
            continue
        other = results.get((app, SYSTEM_NWCACHE, pf))
        if other is not None:
            out[app] = (getattr(res, field), getattr(other, field))
    return out


def fidelity(workload: Workload, results: Results) -> Dict[str, float]:
    """Both paper-error metrics; 0.0 on workloads they do not apply to."""
    out = {"fig3_error_pp": 0.0, "table8_error_pp": 0.0}
    if "fig3_error_pp" in workload.paper_errors:
        out["fig3_error_pp"] = fig3_error_pp(
            _pairs(results, "optimal", "exec_time")
        )
    if "table8_error_pp" in workload.paper_errors:
        out["table8_error_pp"] = table8_error_pp(
            _pairs(results, "naive", "disk_hit_latency")
        )
    return out


# ------------------------------------------------------------ exact counts
def _tally(res: RunResult, name: str) -> Tuple[float, float]:
    """(n, total) of a Metrics tally, measured phase only when marked."""
    tally = getattr(res.metrics, name)
    n, total = float(tally.n), float(tally.total)
    snap = res.metrics.phases.get("measured")
    if snap is not None:
        n -= snap.get(f"{name}_n", 0.0)
        total -= snap.get(f"{name}_total", 0.0)
    return n, total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(results: Results) -> Dict[str, float]:
    """Per-layer simulated statistics summed over the workload's cells.

    Work counts cover whole runs; latency means and hit rates cover the
    measured phase of open-loop cells (warmup excluded).
    """
    rs = list(results.values())
    nwc = [r for r in rs if r.system == SYSTEM_NWCACHE]

    def total(get) -> float:
        return float(sum(get(r) for r in rs))

    def count(name: str, among=rs) -> float:
        return float(sum(r.metrics.counts[name] for r in among))

    def extra(name: str) -> float:
        return total(lambda r: r.extras.get(name, 0.0))

    def weighted(name: str) -> float:
        n = sum(_tally(r, name)[0] for r in rs)
        return _ratio(sum(_tally(r, name)[1] for r in rs), n)

    def measured(name: str, among) -> float:
        out = 0.0
        for r in among:
            snap = r.metrics.phases.get("measured", {})
            out += r.metrics.counts[name] - snap.get(f"n_{name}", 0.0)
        return out

    combining_n = total(lambda r: r.combining.n)
    out = {
        "sim.events": total(lambda r: r.events_processed),
        "sim.events_jumped": extra("epoch_events_jumped"),
        "hw.cpu.epoch_attempted": extra("epoch_attempted"),
        "hw.cpu.epoch_accept_ratio": _ratio(
            extra("epoch_accepted"), extra("epoch_attempted")
        ),
        "hw.cpu.fault_blocked_pressure": extra("epoch_fault_blocked_pressure"),
        "hw.tlb_hit_rate": _ratio(extra("tlb_hit_rate"), len(rs)),
        "hw.network_bytes": total(lambda r: r.network_bytes),
        "osim.vm.faults": count("faults"),
        "osim.swap.swapouts": count("swapouts"),
        "osim.swap.mean_pc": weighted("swapout"),
        "osim.swap.clean_drops": count("clean_drops"),
        "optical.ring_hits": count("ring_hits"),
        "optical.ring_hit_rate": _ratio(
            measured("ring_hits", nwc), measured("faults", nwc)
        ),
        "disk.cache_hits": count("disk_cache_hits"),
        "disk.hit_latency_pc": weighted("disk_hit_latency"),
        "disk.combining": _ratio(
            total(lambda r: r.combining.total), combining_n
        ),
    }
    for category in ("nofree", "transit", "fault", "tlb"):
        out[f"osim.vm.{category}_pc"] = total(
            lambda r: r.breakdown.get(category, 0.0)
        )
    return out


def openloop_completed(results: Results) -> float:
    return float(
        sum(r.extras.get("openloop_completed_requests", 0.0) for r in results.values())
    )
