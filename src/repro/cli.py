"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``describe``
    Print the Table 1 machine parameters and the Table 2 workload list.
``run APP`` (or ``run --app APP``)
    Run one experiment and print its summary.
``compare APP``
    Run both machines on one app and print the headline comparison.
``table N``
    Regenerate paper table N (3-8) across all applications.
``figure N``
    Regenerate paper figure N (3 or 4).
``batch``
    Run a grid of experiments through the parallel batch runner.
``service submit/work/status DIR``
    The durable sweep service: append cells to a crash-safe journal,
    run leased workers over it (any number, any hosts sharing the
    directory), inspect per-cell state.  See ``docs/robustness.md``.
``serve DIR``
    Expose a sweep directory over HTTP: submit, status, per-cell
    results, and streaming progress.
``trace record APP PATH`` / ``trace replay PATH``
    Record an app's reference streams to a trace file / run a machine
    on a recorded trace.

``run`` accepts ``--profile [PATH]`` (cProfile the run for hot-path
triage) and ``--checkpoint-every PCYCLES``
(record verifiable checkpoints so an interrupted run resumes with a
bit-identity proof; see :mod:`repro.service.checkpoint`).

``run`` and ``batch`` accept ``--faults SPEC``: a fault-injection plan
such as ``disk_transient_rate=0.01,channel_failures=0@2e6`` (see
:func:`repro.sim.faults.parse_fault_spec`; the ``NWCACHE_FAULTS``
environment variable supplies a default).

Grid-running commands (``compare``, ``table``, ``figure``, ``sweep``,
``batch``) accept ``--jobs N`` (worker processes; default = CPU count)
and ``--no-cache`` (skip the on-disk result cache); so does ``service
work``, where ``--jobs`` is the number of cells in flight.

Besides the seven Table 2 kernels, ``run``/``compare``/``sweep``/
``batch``/``trace`` accept the open-loop generators (``zipf``,
``ycsb-a`` .. ``ycsb-d``; see :mod:`repro.apps.openloop`).  ``run``
exposes their knobs: ``--rate`` (requests per Mcycle per node),
``--alpha`` (Zipf exponent), ``--catalog`` (catalog pages),
``--warmup`` / ``--requests`` (per-node request counts),
``--write-fraction`` and ``--node-skew``.  ``table``/``figure``
remain paper-kernel-only (their rows are Table 2's).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.apps import ALL_APP_NAMES, APP_NAMES, OPENLOOP_NAMES, make_app
from repro.config import SimConfig
from repro.core import report
from repro.core.machine import RunResult
from repro.core.runner import linear_scale, run_experiment


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=0.25,
                   help="fraction of the paper's data size (default 0.25)")
    p.add_argument("--prefetch", choices=("optimal", "naive", "stream"),
                   default="optimal")


def _add_batch_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: NWCACHE_JOBS or CPU count)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read or write the on-disk result cache")


def _cache_arg(args: argparse.Namespace):
    return False if getattr(args, "no_cache", False) else None


#: ``run`` flag -> workload constructor parameter (open-loop apps only)
_OPENLOOP_KNOBS = {
    "rate": "rate",
    "alpha": "alpha",
    "catalog": "catalog_pages",
    "warmup": "warmup",
    "requests": "requests",
    "write_fraction": "write_fraction",
    "node_skew": "node_skew",
}


def _resolve_app(args: argparse.Namespace) -> str:
    """The app from the positional or the ``--app`` flag (exactly one)."""
    pos = getattr(args, "app", None)
    opt = getattr(args, "app_opt", None)
    if pos and opt and pos != opt:
        print(f"conflicting app arguments: {pos!r} vs --app {opt!r}",
              file=sys.stderr)
        raise SystemExit(2)
    name = pos or opt
    if not name:
        print("missing application: pass APP or --app APP "
              f"(know {ALL_APP_NAMES})", file=sys.stderr)
        raise SystemExit(2)
    return name


def _openloop_params(args: argparse.Namespace, app: str) -> Dict[str, float]:
    """Workload kwargs from the open-loop knobs the user actually set."""
    params = {
        param: getattr(args, flag)
        for flag, param in _OPENLOOP_KNOBS.items()
        if getattr(args, flag, None) is not None
    }
    if params and app not in OPENLOOP_NAMES:
        knobs = ", ".join("--" + f.replace("_", "-") for f in _OPENLOOP_KNOBS)
        print(f"{app!r} is a closed-loop kernel; {knobs} apply only to "
              f"the open-loop apps {OPENLOOP_NAMES}", file=sys.stderr)
        raise SystemExit(2)
    return params


def _summary(res: RunResult) -> str:
    lines = [
        f"app={res.app} system={res.system} prefetch={res.prefetch}",
        f"  execution time : {res.exec_time / 1e6:12.2f} Mpcycles",
        f"  avg swap-out   : {res.swapout_mean / 1e3:12.1f} Kpcycles "
        f"({res.metrics.swapout.n} swap-outs)",
        f"  page faults    : {res.metrics.counts['faults']:12d} "
        f"(ring hits {res.ring_hit_rate:.1%}, "
        f"disk-cache hits {res.metrics.disk_cache_hit_rate:.1%})",
        f"  write combining: {res.combining.mean:12.2f} pages/disk write",
        "  breakdown      : "
        + "  ".join(
            f"{k}={v / sum(res.breakdown.values()):.1%}"
            for k, v in res.breakdown.items()
        ),
    ]
    if "audit_checks" in res.extras:
        lines.append(
            f"  audit          : {int(res.extras['audit_checks']):12d} "
            f"invariant checks in {int(res.extras['audit_passes'])} passes, "
            "all held"
        )
    faults = getattr(res.metrics, "faults", None)
    fault_counts = faults.as_dict() if faults is not None else {}
    if fault_counts:
        injected = int(fault_counts.get("injected", 0))
        detail = "  ".join(
            f"{k}={int(v)}" for k, v in sorted(fault_counts.items())
            if k != "injected"
        )
        lines.append(f"  faults injected: {injected:12d}  {detail}")
    if "openloop_completed_requests" in res.extras:
        completed = int(res.extras["openloop_completed_requests"])
        offered = int(res.extras.get("openloop_offered_requests", completed))
        line = f"  open loop      : {completed:12d}/{offered} requests completed"
        measured = res.metrics.measured_summary()
        if measured:
            line += (f"  (measured: ring hits "
                     f"{measured['measured_ring_hit_rate']:.1%}, "
                     f"disk-cache hits "
                     f"{measured['measured_disk_cache_hit_rate']:.1%})")
        lines.append(line)
    return "\n".join(lines)


def cmd_describe(args: argparse.Namespace) -> int:
    cfg = SimConfig.paper()
    print("Machine (Table 1):")
    print(cfg.describe())
    print("\nApplications (Table 2):")
    for name in APP_NAMES:
        app = make_app(name, scale=1.0)
        print(f"  {app.describe()}")
    print("\nOpen-loop workloads (repro.apps.openloop):")
    for name in OPENLOOP_NAMES:
        app = make_app(name, scale=1.0)
        print(f"  {app.describe()}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            rc = _run_once(args)
        finally:
            profiler.disable()
            if args.profile == "-":
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(30)
            else:
                profiler.dump_stats(args.profile)
                print(f"wrote profile to {args.profile} "
                      "(inspect with python -m pstats)", file=sys.stderr)
        return rc
    return _run_once(args)


def _run_once(args: argparse.Namespace) -> int:
    app_name = _resolve_app(args)
    params = _openloop_params(args, app_name)
    if args.checkpoint_every is not None and args.report:
        print("--checkpoint-every and --report are mutually exclusive "
              "(the report needs direct machine access)", file=sys.stderr)
        raise SystemExit(2)
    if args.report:
        from repro.core.inspect import machine_report
        from repro.core.machine import Machine
        from repro.core.runner import BEST_MIN_FREE, experiment_config

        cfg = experiment_config(
            args.scale,
            min_free=BEST_MIN_FREE[(args.system, args.prefetch)],
            audit=args.audit,
            faults=args.faults,
        )
        machine = Machine(cfg, system=args.system, prefetch=args.prefetch)
        app = make_app(app_name, scale=linear_scale(app_name, args.scale),
                       **params)
        res = machine.run(app)
        print(_summary(res))
        print()
        print(machine_report(machine, res.exec_time))
        fault_table = report.fault_section(res)
        if fault_table:
            print()
            print(fault_table)
    elif args.checkpoint_every is not None:
        from repro.core.batch import ExperimentSpec
        from repro.service.checkpoint import (
            clear_checkpoint,
            run_with_checkpoints,
        )

        spec = ExperimentSpec(
            app_name, args.system, args.prefetch, data_scale=args.scale,
            audit=args.audit, faults=args.faults, app_params=params,
        )
        path = args.checkpoint or f"{app_name}-{args.system}.ckpt"
        res = run_with_checkpoints(spec, args.checkpoint_every, path)
        # the run finished: its attestation has served its purpose
        clear_checkpoint(path)
        print(_summary(res))
    else:
        res = run_experiment(
            app_name, args.system, args.prefetch, data_scale=args.scale,
            audit=args.audit or None, faults=args.faults, **params,
        )
        print(_summary(res))
    openloop_table = report.openloop_section(res)
    if openloop_table:
        print()
        print(openloop_table)
    if args.json:
        from repro.core.export import save_results

        save_results(args.json, [res])
        print(f"\nwrote {args.json}", file=sys.stderr)
    return 0


def _check_failures(results) -> None:
    """Exit with a diagnostic if any crash-safe batch slot failed."""
    from repro.core.batch import FailedSpec

    failed = [r for r in results if isinstance(r, FailedSpec)]
    if failed:
        for f in failed:
            print(f"FAILED {f.spec.app} {f.spec.system}/{f.spec.prefetch}: "
                  f"{f.kind} after {f.attempts} attempt(s), "
                  f"{f.retries} retr{'y' if f.retries == 1 else 'ies'} "
                  f"({f.error})", file=sys.stderr)
        sys.exit(1)


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.batch import run_pairs_batch

    pairs = run_pairs_batch(
        [args.app], prefetch=args.prefetch, data_scale=args.scale,
        jobs=args.jobs, cache=_cache_arg(args),
    )
    std, nwc = pairs[args.app]
    _check_failures([std, nwc])
    print(_summary(std))
    print()
    print(_summary(nwc))
    print(f"\nNWCache improvement: {nwc.speedup_vs(std):.1%}"
          f"   swap-out speedup: {std.swapout_mean / max(nwc.swapout_mean, 1e-9):.0f}x")
    return 0


def _service_progress(event: str, spec, key: str) -> None:
    print(f"  {event:6s} {spec.app} {spec.system}/{spec.prefetch} "
          f"[{key[:12]}]", file=sys.stderr)


def _all_pairs(prefetch: str, args: argparse.Namespace, apps: List[str]):
    from repro.core.batch import run_pairs_batch

    pairs = run_pairs_batch(
        apps, prefetch=prefetch, data_scale=args.scale,
        jobs=args.jobs, cache=_cache_arg(args), progress=_service_progress,
    )
    # Tables/figures cannot render around holes: bail out with the
    # failure diagnostics instead.
    _check_failures([r for pair in pairs.values() for r in pair])
    return pairs


def cmd_table(args: argparse.Namespace) -> int:
    apps = args.apps or APP_NAMES
    n = args.number
    if n in (3, 5):
        pairs = _all_pairs("optimal", args, apps)
        text = (report.table_swapout(pairs, "optimal") if n == 3
                else report.table_combining(pairs, "optimal"))
    elif n in (4, 6, 8):
        pairs = _all_pairs("naive", args, apps)
        text = {
            4: lambda: report.table_swapout(pairs, "naive"),
            6: lambda: report.table_combining(pairs, "naive"),
            8: lambda: report.table_disk_hit_latency(pairs),
        }[n]()
    elif n == 7:
        from repro.core.batch import ExperimentSpec, run_batch

        specs = [ExperimentSpec(a, "nwcache", pf, data_scale=args.scale)
                 for pf in ("naive", "optimal") for a in apps]
        results = run_batch(specs, jobs=args.jobs, cache=_cache_arg(args),
                            progress=_service_progress)
        _check_failures(results)
        naive = dict(zip(apps, results[: len(apps)]))
        optimal = dict(zip(apps, results[len(apps):]))
        text = report.table_hit_rates(naive, optimal)
    else:
        print(f"no such table: {n} (know 3-8)", file=sys.stderr)
        return 2
    print(text)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.number not in (3, 4):
        print(f"no such figure: {args.number} (know 3, 4)", file=sys.stderr)
        return 2
    prefetch = "optimal" if args.number == 3 else "naive"
    pairs = _all_pairs(prefetch, args, args.apps or APP_NAMES)
    print(report.figure_breakdown(pairs, prefetch))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import sweep, tabulate

    values = [int(v) for v in args.values]
    rows = sweep(
        args.app,
        system=args.system,
        prefetch=args.prefetch,
        data_scale=args.scale,
        jobs=args.jobs,
        cache=_cache_arg(args),
        **{args.parameter: values},
    )
    print(tabulate(rows, title=f"{args.app}: {args.parameter} sweep"))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.batch import (
        FailedSpec,
        grid_specs,
        resolve_cache,
        run_batch,
    )
    from repro.core.machine import RunResult as _RunResult

    apps = args.apps or APP_NAMES
    systems = args.systems or ["standard", "nwcache"]
    prefetchers = args.prefetchers or [args.prefetch]
    specs = grid_specs(apps, systems, prefetchers, data_scale=args.scale,
                       audit=args.audit, faults=args.faults)
    if args.audit and not args.no_cache:
        # Audited results carry audit counters in extras; keep them out
        # of the shared result cache.
        print("audit mode: result cache disabled", file=sys.stderr)
        args.no_cache = True
    cache = resolve_cache(_cache_arg(args))
    results = run_batch(
        specs, jobs=args.jobs,
        cache=cache if cache is not None else False,
        progress=_service_progress,
    )
    n_failed = 0
    for spec, res in zip(specs, results):
        if isinstance(res, FailedSpec):
            n_failed += 1
            print(f"{spec.app:6s} {spec.system:8s} {spec.prefetch:8s} "
                  f"FAILED ({res.kind} after {res.attempts} attempt(s), "
                  f"{res.retries} retr{'y' if res.retries == 1 else 'ies'}: "
                  f"{res.error})")
            continue
        print(f"{spec.app:6s} {spec.system:8s} {spec.prefetch:8s} "
              f"exec={res.exec_time / 1e6:10.2f} Mpc  "
              f"swapout={res.swapout_mean / 1e3:8.1f} Kpc  "
              f"hit={res.ring_hit_rate:6.1%}")
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses",
              file=sys.stderr)
    if args.json:
        from repro.core.export import save_full_results

        ok = [r for r in results if isinstance(r, _RunResult)]
        n = save_full_results(args.json, ok)
        print(f"wrote {n} results to {args.json}", file=sys.stderr)
    if n_failed:
        print(f"{n_failed} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_service(args: argparse.Namespace) -> int:
    from repro.service import SweepQueue

    if args.service_command == "submit":
        from repro.core.batch import grid_specs

        queue = SweepQueue(args.dir, retry_budget=args.retry_budget)
        apps = args.apps or APP_NAMES
        systems = args.systems or ["standard", "nwcache"]
        prefetchers = args.prefetchers or [args.prefetch]
        specs = grid_specs(apps, systems, prefetchers, data_scale=args.scale,
                           audit=args.audit, faults=args.faults)
        keys = queue.submit(specs)
        for spec, key in zip(specs, keys):
            print(f"  {key[:16]} {spec.app} {spec.system}/{spec.prefetch}")
        counts = queue.state().counts()
        print(f"sweep {args.dir}: {len(keys)} cell(s) submitted "
              f"({counts['pending']} pending, {counts['done']} done)")
        return 0

    if args.service_command == "work":
        from repro.service import Worker

        queue = SweepQueue(args.dir, lease_duration=args.lease_duration,
                           retry_budget=args.retry_budget)
        worker = Worker(
            queue,
            cache=_cache_arg(args),
            checkpoint_every=args.checkpoint_every,
            max_cells=args.max_cells,
            progress=_service_progress,
            jobs=args.jobs,
        )
        worker.install_signal_handlers()
        stats = worker.run()
        print(f"worker {worker.worker_id}: {stats.executed} executed, "
              f"{stats.cached} cached, {stats.failed} failed attempt(s)"
              + (" — drained" if stats.drained else ""))
        if not stats.drained:
            _check_failures(queue.failed_specs())
        return 0

    # status
    import json as _json

    from repro.service.lease import asdict_state
    from repro.service.server import summarize_status

    state = asdict_state(SweepQueue(args.dir).state())
    if args.json:
        print(_json.dumps(state, indent=2))
        return 0
    print(summarize_status(state))
    for key, cell in state["cells"].items():
        err = (f"  ({cell['last_kind']}: {cell['last_error']})"
               if cell["last_error"] else "")
        print(f"  {key[:16]} {cell['app']:8s} {cell['system']:8s} "
              f"{cell['status']:7s} attempts={cell['attempts']} "
              f"executed={cell['executed_runs']}{err}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    print(f"serving sweep {args.dir} on http://{args.host}:{args.port} "
          "(SIGTERM/SIGINT for graceful shutdown)", file=sys.stderr)
    serve(args.dir, host=args.host, port=args.port, cache=_cache_arg(args),
          lease_duration=args.lease_duration, retry_budget=args.retry_budget)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.apps.trace import TraceWorkload, record_trace

    if args.trace_command == "record":
        app = make_app(args.app, scale=linear_scale(args.app, args.scale))
        n = record_trace(app, n_nodes=args.nodes, path=args.path,
                         seed=args.seed)
        print(f"recorded {n} items from {args.app} to {args.path}")
        return 0
    # replay
    wl = TraceWorkload(args.path)
    res = run_experiment(wl, args.system, args.prefetch, data_scale=args.scale)
    print(_summary(res))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="NWCache (IPPS 1999) reproduction simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="print Table 1 / Table 2").set_defaults(
        func=cmd_describe
    )

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("app", nargs="?", choices=ALL_APP_NAMES)
    p.add_argument("--app", dest="app_opt", choices=ALL_APP_NAMES,
                   help="application to run (same as the positional)")
    p.add_argument("--system", choices=("standard", "nwcache"),
                   default="nwcache")
    g = p.add_argument_group("open-loop workload knobs (zipf/ycsb-* only)")
    g.add_argument("--rate", type=float, default=None,
                   help="arrival rate, requests per Mcycle per node")
    g.add_argument("--alpha", type=float, default=None,
                   help="Zipf popularity exponent over the page catalog")
    g.add_argument("--catalog", type=int, default=None,
                   help="catalog pages (before scaling)")
    g.add_argument("--warmup", type=int, default=None,
                   help="per-node warmup requests excluded from "
                        "measured_* metrics (before scaling)")
    g.add_argument("--requests", type=int, default=None,
                   help="per-node measured requests (before scaling)")
    g.add_argument("--write-fraction", type=float, default=None,
                   help="fraction of zipf requests that also write")
    g.add_argument("--node-skew", type=float, default=None,
                   help="Zipf exponent skewing per-node arrival rates "
                        "(0 = uniform)")
    p.add_argument("--report", action="store_true",
                   help="also print per-component utilization")
    p.add_argument("--json", metavar="PATH",
                   help="write the result as JSON to PATH")
    p.add_argument("--audit", action="store_true",
                   help="run with the invariant auditor enabled")
    p.add_argument("--profile", nargs="?", const="-", metavar="PATH",
                   help="profile the run with cProfile; print the top of "
                        "the cumulative table (or dump stats to PATH)")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault-injection plan, e.g. "
                        "'disk_transient_rate=0.01,channel_failures=0@2e6' "
                        "(default: the NWCACHE_FAULTS environment variable)")
    p.add_argument("--checkpoint-every", type=float, default=None,
                   metavar="PCYCLES",
                   help="record verifiable checkpoints every PCYCLES of "
                        "simulated time; an interrupted run resumes from "
                        "its checkpoint file with a bit-identity proof")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="checkpoint file (default: <app>-<system>.ckpt in "
                        "the working directory; removed on completion)")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="standard vs NWCache on one app")
    p.add_argument("app", choices=ALL_APP_NAMES)
    _add_common(p)
    _add_batch_opts(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table", help="regenerate a paper table (3-8)")
    p.add_argument("number", type=int)
    p.add_argument("--apps", nargs="*", choices=APP_NAMES)
    _add_common(p)
    _add_batch_opts(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure (3 or 4)")
    p.add_argument("number", type=int)
    p.add_argument("--apps", nargs="*", choices=APP_NAMES)
    _add_common(p)
    _add_batch_opts(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("sweep", help="sweep one machine parameter")
    p.add_argument("app", choices=ALL_APP_NAMES)
    p.add_argument("parameter",
                   help="SimConfig field, e.g. ring_channel_bytes")
    p.add_argument("values", nargs="+", help="integer values to sweep")
    p.add_argument("--system", choices=("standard", "nwcache"),
                   default="nwcache")
    _add_common(p)
    _add_batch_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "batch", help="run an experiment grid via the parallel batch runner"
    )
    p.add_argument("--apps", nargs="*", choices=ALL_APP_NAMES)
    p.add_argument("--systems", nargs="*", choices=("standard", "nwcache"))
    p.add_argument("--prefetchers", nargs="*",
                   choices=("optimal", "naive", "stream"))
    p.add_argument("--json", metavar="PATH",
                   help="write full-fidelity results as JSON to PATH")
    p.add_argument("--audit", action="store_true",
                   help="run every cell with the invariant auditor enabled")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault-injection plan applied to every cell "
                        "(default: the NWCACHE_FAULTS environment variable)")
    _add_common(p)
    _add_batch_opts(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "service",
        help="durable sweep service: journaled work queue + leased workers",
    )
    ssub = p.add_subparsers(dest="service_command", required=True)
    ps = ssub.add_parser(
        "submit", help="append a grid of cells to a sweep journal"
    )
    ps.add_argument("dir", help="sweep directory (journal + checkpoints)")
    ps.add_argument("--apps", nargs="*", choices=ALL_APP_NAMES)
    ps.add_argument("--systems", nargs="*", choices=("standard", "nwcache"))
    ps.add_argument("--prefetchers", nargs="*",
                    choices=("optimal", "naive", "stream"))
    ps.add_argument("--audit", action="store_true",
                    help="run every cell with the invariant auditor enabled")
    ps.add_argument("--faults", metavar="SPEC", default=None,
                    help="fault-injection plan applied to every cell")
    ps.add_argument("--retry-budget", type=int, default=3,
                    help="attempts per cell before it is a terminal failure")
    _add_common(ps)
    ps.set_defaults(func=cmd_service)
    pw = ssub.add_parser(
        "work", help="run a leased worker over a sweep directory"
    )
    pw.add_argument("dir")
    pw.add_argument("--lease-duration", type=float, default=60.0,
                    help="seconds a claim is valid without renewal")
    pw.add_argument("--jobs", type=int, default=None,
                    help="cells in flight, each in its own child process "
                         "(default: NWCACHE_JOBS or CPU count)")
    pw.add_argument("--retry-budget", type=int, default=3)
    pw.add_argument("--checkpoint-every", type=float, default=None,
                    metavar="PCYCLES",
                    help="checkpoint long cells at this simulated cadence")
    pw.add_argument("--max-cells", type=int, default=None,
                    help="stop after this many cells (default: run until "
                         "the sweep settles)")
    pw.add_argument("--no-cache", action="store_true",
                    help="do not read or write the on-disk result cache "
                         "(disables crash dedupe of completed cells)")
    pw.set_defaults(func=cmd_service)
    pt = ssub.add_parser("status", help="show a sweep's per-cell state")
    pt.add_argument("dir")
    pt.add_argument("--json", action="store_true",
                    help="emit the full machine-readable state")
    pt.set_defaults(func=cmd_service)

    p = sub.add_parser(
        "serve", help="expose a sweep queue over HTTP (submit/status/results)"
    )
    p.add_argument("dir")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--lease-duration", type=float, default=60.0)
    p.add_argument("--retry-budget", type=int, default=3)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace", help="record / replay workload traces"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    pr = tsub.add_parser("record")
    pr.add_argument("app", choices=ALL_APP_NAMES)
    pr.add_argument("path")
    pr.add_argument("--nodes", type=int, default=8)
    pr.add_argument("--seed", type=int, default=0)
    _add_common(pr)
    pr.set_defaults(func=cmd_trace)
    pp = tsub.add_parser("replay")
    pp.add_argument("path")
    pp.add_argument("--system", choices=("standard", "nwcache"),
                    default="nwcache")
    _add_common(pp)
    pp.set_defaults(func=cmd_trace)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
