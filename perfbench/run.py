"""The repository benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {paper-scale,grid-bench,ycsb-update,ycsb-read}
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with tracing off: passes
over the workload's cells for ``--seconds`` (at least two), reporting the
median pass, with a fresh interpreter's set-up timed before the first
pass and after each pass (median reported).  ``--trace 1`` makes one untraced and one cProfile-traced pass and
reports the per-layer metrics.  Every cell's output is checked, and all
passes must simulate identical statistics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is 0 only when
every check passed.  See ``perfbench/README.md``.
"""

import time

# set-up probes time a fresh interpreter from here, before any import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: simulator knobs that select a non-default program; a run that
#: inherits one would measure something else, so the benchmark refuses
REFUSED_ENV = (
    "NWCACHE_FAULTS",
    "NWCACHE_AUDIT",
    "NWCACHE_EPOCH_EXEC",
    "NWCACHE_COMPILED_TRACES",
    "NWCACHE_ENGINE",
    "NWCACHE_EPOCH_MIN_ITEMS",
)

#: the workloads (defined in ``workloads.WORKLOADS``, which needs the
#: simulator importable; arguments are parsed before that is checked)
WORKLOAD_NAMES = ("paper-scale", "grid-bench", "ycsb-update", "ycsb-read")

#: end-to-end metric -> unit (reported with ``--trace 0``)
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: passes per run at least, so every run compares two trajectories
MIN_PASSES = 2
#: seconds a single set-up probe may take before the run fails
PROBE_TIMEOUT = 120


class BenchError(Exception):
    """The benchmark cannot run here (reported, exit code 2)."""


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def hermetic_env(workdir: Path) -> None:
    """Default program, fresh result cache, on-disk trace cache off."""
    inherited = [name for name in REFUSED_ENV if os.environ.get(name)]
    if inherited:
        raise BenchError(
            "refusing to measure a non-default program; unset "
            + ", ".join(inherited)
        )
    os.environ["NWCACHE_CACHE_DIR"] = str(workdir / "cache")
    os.environ["NWCACHE_TRACE_CACHE"] = "0"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ set-up
def setup_probe(args: argparse.Namespace) -> None:
    """Child side: import, compile the traces, prepare one pass; print s."""
    import_repro()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    wl.compile_traces(args.seed)
    wl.prepare(args.seed, Path(args.workdir))
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload", workload,
            "--seed", str(seed),
            "--workdir", str(workdir),
        ],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------ passes
class Checks:
    """Output checks across every pass of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference = None  # fingerprints of the first pass

    def record(self, wl, label: str, results, problems) -> None:
        from workloads import check_results, fingerprints

        self.attempted += len(wl.cells())
        bad = check_results(wl, results, problems)
        prints = fingerprints(results)
        if self.reference is None:
            self.reference = prints
        else:
            for cell, digest in self.reference.items():
                if prints.get(cell) != digest:
                    bad.setdefault(cell, []).append(
                        "simulated statistics differ from the first pass"
                    )
        for cell, found in bad.items():
            print(f"{label}: {cell}: {'; '.join(found)}", file=sys.stderr)
        self.failed += len(bad)

    def fail_pass(self, wl, label: str) -> None:
        traceback.print_exc()
        print(f"{label}: raised", file=sys.stderr)
        self.attempted += len(wl.cells())
        self.failed += len(wl.cells())


def timed_pass(wl, seed: int, workdir: Path):
    """One pass: untimed per-pass set-up, then the cells, timed."""
    handle = wl.prepare(seed, workdir)
    gc.collect()
    start = time.perf_counter()
    done = wl.execute(seed, handle)
    wall = time.perf_counter() - start
    results, problems = wl.collect(handle, done)
    return wall, results, problems


def end_to_end(wl, args, workdir: Path, checks: Checks):
    # one set-up probe before the first pass and one after every pass,
    # so the set-up samples spread over the run like the passes do
    setups = [time_setup(wl.name, args.seed, workdir / "probe0")]
    wl.compile_traces(args.seed)
    walls, events = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        label = f"pass {len(walls)}"
        try:
            wall, results, problems = timed_pass(
                wl, args.seed, workdir / f"pass{len(walls)}"
            )
        except Exception:  # noqa: BLE001 - a failing cell is a result
            checks.fail_pass(wl, label)
            return None
        checks.record(wl, label, results, problems)
        walls.append(wall)
        events.append(sum(r.events_processed for r in results.values()))
        print(f"{label}: {wall:.4f} s", file=sys.stderr)
        setups.append(time_setup(wl.name, args.seed, workdir / f"probe{len(walls)}"))
    return {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(e / w for e, w in zip(events, walls)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(wl, args, workdir: Path, checks: Checks):
    from repro.core.trace import clear_memo

    import layers
    from workloads import exact_counts, fidelity, openloop_completed

    def full_pass(sub: str, profile=None):
        clear_memo()
        gc.collect()
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            wl.compile_traces(args.seed)
            handle = wl.prepare(args.seed, workdir / sub)
            cells_start = time.perf_counter()
            done = wl.execute(args.seed, handle)
            end = time.perf_counter()
        finally:
            if profile is not None:
                profile.disable()
        results, problems = wl.collect(handle, done)
        checks.record(wl, sub, results, problems)
        return end - start, end - cells_start, results

    profile = cProfile.Profile()
    try:
        untraced, cells_wall, results = full_pass("untraced")
        traced, _cells, _results = full_pass("traced", profile)
    except Exception:  # noqa: BLE001 - a failing cell is a result
        checks.fail_pass(wl, "trace")
        return None

    stats = pstats.Stats(profile)
    self_s = layers.attribute(stats, SRC)
    total_self = sum(self_s.values())
    calls = layers.call_counts(
        stats,
        {f"{layer}.calls": funcs for layer, funcs in layers.ENTRY_POINTS.items()},
    )
    out = dict(exact_counts(results))
    out.update(fidelity(wl, results))
    out["requests_per_s"] = openloop_completed(results) / cells_wall
    out["failed_fraction"] = checks.failed / checks.attempted
    out["trace_overhead_x"] = traced / untraced
    for owner, secs in self_s.items():
        out[f"{owner}.self_s"] = secs
        out[f"{owner}.self_share"] = secs / total_self
    out.update(calls)
    out.update(layers.call_counts(stats, layers.JOURNAL_COUNTERS))
    return out


def per_layer_units():
    """Per-layer metric -> unit (reported with ``--trace 1``)."""
    import layers

    units = {
        "sim.events": "count",
        "sim.events_jumped": "count",
        "hw.cpu.epoch_attempted": "count",
        "hw.cpu.epoch_accept_ratio": "ratio",
        "hw.cpu.fault_blocked_pressure": "count",
        "hw.tlb_hit_rate": "ratio",
        "hw.network_bytes": "bytes",
        "osim.vm.faults": "count",
        "osim.vm.nofree_pc": "pcycles",
        "osim.vm.transit_pc": "pcycles",
        "osim.vm.fault_pc": "pcycles",
        "osim.vm.tlb_pc": "pcycles",
        "osim.swap.swapouts": "count",
        "osim.swap.mean_pc": "pcycles",
        "osim.swap.clean_drops": "count",
        "optical.ring_hits": "count",
        "optical.ring_hit_rate": "ratio",
        "disk.cache_hits": "count",
        "disk.hit_latency_pc": "pcycles",
        "disk.combining": "ratio",
        "fig3_error_pp": "pp",
        "table8_error_pp": "pp",
        "requests_per_s": "requests/s",
        "failed_fraction": "ratio",
        "trace_overhead_x": "x",
    }
    for owner in layers.LAYERS + (layers.UNATTRIBUTED,):
        units[f"{owner}.self_s"] = "s"
        units[f"{owner}.self_share"] = "ratio"
    for layer in layers.ENTRY_POINTS:
        units[f"{layer}.calls"] = "count"
    for name in layers.JOURNAL_COUNTERS:
        units[name] = "count"
    return units


# -------------------------------------------------------------------- main
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, workdir: Path) -> int:
    import_repro()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    checks = Checks()
    if args.trace:
        values, units = per_layer(wl, args, workdir, checks), per_layer_units()
    else:
        values, units = end_to_end(wl, args, workdir, checks), END_TO_END
    correct = values is not None and checks.failed == 0
    metrics = {
        name: {"value": (values or {}).get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        try:
            hermetic_env(workdir)
            return measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
