"""Text reports reproducing the paper's tables and figures.

Each ``table*`` / ``figure*`` function takes the per-application results
of the two machines and renders the same rows the paper prints, with the
paper's own numbers alongside for comparison.  ``RunResult`` pairs come
from :func:`repro.core.runner.run_pair`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core import paper_data
from repro.core.machine import RunResult

PairMap = Mapping[str, Tuple[RunResult, RunResult]]  #: app -> (standard, nwcache)


def _fmt(value: Optional[float], width: int = 10, digits: int = 2) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:>{width}.{digits}f}"


def render_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Render a fixed-width text table."""
    lines = [title, "-" * len(title)]
    widths: List[int] = [len(h) for h in header]
    body = [list(r) for r in rows]
    for r in body:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines.append(fmt_row(header))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(r) for r in body)
    return "\n".join(lines)


# --------------------------------------------------------------------- tables
def table_swapout(pairs: PairMap, prefetch: str) -> str:
    """Tables 3/4: average swap-out times, Standard vs NWCache."""
    if prefetch == "optimal":
        paper = paper_data.TABLE3_SWAPOUT_OPTIMAL_MPC
        unit, div, tno = "Mpcycles", 1e6, 3
    else:
        paper = paper_data.TABLE4_SWAPOUT_NAIVE_KPC
        unit, div, tno = "Kpcycles", 1e3, 4
    rows = []
    for app in paper_data.APP_ORDER:
        if app not in pairs:
            continue
        std, nwc = pairs[app]
        ratio = std.swapout_mean / nwc.swapout_mean if nwc.swapout_mean else float("inf")
        p_std, p_nwc = paper[app]
        rows.append(
            [
                app,
                _fmt(std.swapout_mean / div),
                _fmt(nwc.swapout_mean / div),
                _fmt(ratio, digits=1),
                _fmt(p_std, digits=1),
                _fmt(p_nwc, digits=1),
                _fmt(p_std / p_nwc, digits=1),
            ]
        )
    return render_table(
        f"Table {tno}. Average Swap-Out Times ({unit}) under "
        f"{prefetch.capitalize()} Prefetching",
        ["app", "Standard", "NWCache", "ratio", "paper-Std", "paper-NWC", "paper-ratio"],
        rows,
    )


def table_combining(pairs: PairMap, prefetch: str) -> str:
    """Tables 5/6: average write combining per disk write."""
    paper = (
        paper_data.TABLE5_COMBINING_OPTIMAL
        if prefetch == "optimal"
        else paper_data.TABLE6_COMBINING_NAIVE
    )
    tno = 5 if prefetch == "optimal" else 6
    rows = []
    for app in paper_data.APP_ORDER:
        if app not in pairs:
            continue
        std, nwc = pairs[app]
        inc = (nwc.combining.mean / std.combining.mean - 1) * 100 if std.combining.mean else 0.0
        p_std, p_nwc = paper[app]
        rows.append(
            [
                app,
                _fmt(std.combining.mean),
                _fmt(nwc.combining.mean),
                f"{inc:>7.0f}%",
                _fmt(p_std),
                _fmt(p_nwc),
                f"{(p_nwc / p_std - 1) * 100:>7.0f}%",
            ]
        )
    return render_table(
        f"Table {tno}. Average Write Combining under {prefetch.capitalize()} Prefetching",
        ["app", "Standard", "NWCache", "increase", "paper-Std", "paper-NWC", "paper-inc"],
        rows,
    )


def table_hit_rates(
    naive: Mapping[str, RunResult], optimal: Mapping[str, RunResult]
) -> str:
    """Table 7: NWCache victim-cache hit rates (%)."""
    rows = []
    for app in paper_data.APP_ORDER:
        if app not in naive or app not in optimal:
            continue
        p_naive, p_opt = paper_data.TABLE7_HIT_RATES_PCT[app]
        rows.append(
            [
                app,
                _fmt(100 * naive[app].ring_hit_rate, digits=1),
                _fmt(100 * optimal[app].ring_hit_rate, digits=1),
                _fmt(p_naive, digits=1),
                _fmt(p_opt, digits=1),
            ]
        )
    return render_table(
        "Table 7. NWCache Hit Rates (%) under Different Prefetching Techniques",
        ["app", "Naive", "Optimal", "paper-Naive", "paper-Optimal"],
        rows,
    )


def table_disk_hit_latency(pairs: PairMap) -> str:
    """Table 8: average fault latency for disk-cache hits (naive)."""
    rows = []
    for app in paper_data.APP_ORDER:
        if app not in pairs:
            continue
        std, nwc = pairs[app]
        red = (
            (1 - nwc.disk_hit_latency / std.disk_hit_latency) * 100
            if std.disk_hit_latency
            else 0.0
        )
        p_std, p_nwc, p_red = paper_data.TABLE8_DISK_HIT_LATENCY_KPC[app]
        rows.append(
            [
                app,
                _fmt(std.disk_hit_latency / 1e3, digits=1),
                _fmt(nwc.disk_hit_latency / 1e3, digits=1),
                f"{red:>7.0f}%",
                _fmt(p_std, digits=1),
                _fmt(p_nwc, digits=1),
                f"{p_red:>7.0f}%",
            ]
        )
    return render_table(
        "Table 8. Average Page Fault Latency (Kpcycles) for Disk Cache Hits "
        "under Naive Prefetching",
        ["app", "Standard", "NWCache", "reduction", "paper-Std", "paper-NWC", "paper-red"],
        rows,
    )


# --------------------------------------------------------------------- figures
def figure_breakdown(pairs: PairMap, prefetch: str) -> str:
    """Figures 3/4: normalized execution-time breakdowns.

    Both machines' bars are normalized to the *standard* machine's total
    (the paper's presentation), so the NWCache bar height directly shows
    the improvement.
    """
    fno = 3 if prefetch == "optimal" else 4
    comps = paper_data.FIGURE_COMPONENTS
    header = ["app", "machine"] + list(comps) + ["total", "improv"]
    rows = []
    for app in paper_data.APP_ORDER:
        if app not in pairs:
            continue
        std, nwc = pairs[app]
        base = sum(std.breakdown.values())
        for label, res in (("Standard", std), ("NWCache", nwc)):
            norm = {c: res.breakdown[c] / base if base else 0.0 for c in comps}
            total = sum(norm.values())
            improv = nwc.speedup_vs(std) * 100
            rows.append(
                [app if label == "Standard" else "", label]
                + [f"{norm[c]:.3f}" for c in comps]
                + [f"{total:.3f}", f"{improv:>5.0f}%" if label == "NWCache" else ""]
            )
    return render_table(
        f"Figure {fno}. Normalized Execution Time Breakdown under "
        f"{prefetch.capitalize()} Prefetching (Standard total = 1.0)",
        header,
        rows,
    )


def improvement_summary(pairs: PairMap, prefetch: str) -> Dict[str, float]:
    """Per-app overall improvement (%) of NWCache over Standard."""
    return {
        app: pairs[app][1].speedup_vs(pairs[app][0]) * 100
        for app in pairs
    }


# ------------------------------------------------------------- fault report
def fault_section(res: RunResult) -> str:
    """Fault-accounting table for one run (empty string when faults off).

    Rows come from ``Metrics.faults``: what the injector scheduled
    (``injected`` plus per-kind counts) and how the machine absorbed it
    (retries, recoveries, timeouts, degraded swap-outs, lost ring
    pages).
    """
    faults = getattr(res.metrics, "faults", None)
    counts = faults.as_dict() if faults is not None else {}
    if not counts:
        return ""
    rows = [[key, str(int(counts[key]))] for key in sorted(counts)]
    return render_table(
        f"Fault accounting: {res.app} on {res.system}/{res.prefetch}",
        ["event", "count"],
        rows,
    )


# ---------------------------------------------------------- open-loop report
def openloop_section(res: RunResult) -> str:
    """Open-loop accounting for one run (empty string for kernels).

    Shows offered vs completed requests, configured per-node rate skew,
    and — when the workload marked a warmup boundary — the
    warmup-excluded (``measured_*``) hit rates and latencies from
    :meth:`repro.metrics.Metrics.measured_summary`.
    """
    extras = res.extras
    if "openloop_completed_requests" not in extras:
        return ""
    rows = [
        ["completed requests", f"{extras['openloop_completed_requests']:.0f}"],
    ]
    if "openloop_offered_requests" in extras:
        rows.insert(
            0, ["offered requests", f"{extras['openloop_offered_requests']:.0f}"]
        )
    if "openloop_rate_skew" in extras:
        rows.append(["node rate skew (max/mean)", f"{extras['openloop_rate_skew']:.2f}"])
    rows.append(
        ["node request skew (max/mean)", f"{extras.get('openloop_request_skew', 0.0):.2f}"]
    )
    measured = res.metrics.measured_summary()
    if measured:
        rows.extend(
            [
                ["measured faults", f"{measured['measured_n_faults']:.0f}"],
                ["measured ring hit rate", f"{measured['measured_ring_hit_rate']:.1%}"],
                [
                    "measured disk cache hit rate",
                    f"{measured['measured_disk_cache_hit_rate']:.1%}",
                ],
                [
                    "measured fault latency (pcycles)",
                    f"{measured['measured_fault_latency_mean_pcycles']:.0f}",
                ],
                [
                    "measured swap-out (pcycles)",
                    f"{measured['measured_swapout_mean_pcycles']:.0f}",
                ],
            ]
        )
    return render_table(
        f"Open-loop accounting: {res.app} on {res.system}/{res.prefetch}",
        ["quantity", "value"],
        rows,
    )


#: one glyph per execution-time component, in bar order
_BAR_GLYPHS = {"nofree": "N", "transit": "T", "fault": "F", "tlb": "L", "other": "."}


def figure_bars(pairs: PairMap, prefetch: str, width: int = 60) -> str:
    """ASCII rendition of Figures 3/4: stacked horizontal bars.

    Each pair of bars is normalized to the standard machine's total
    (width characters); components use the glyphs
    N=NoFree T=Transit F=Fault L=TLB .=Other.
    """
    fno = 3 if prefetch == "optimal" else 4
    comps = paper_data.FIGURE_COMPONENTS
    lines = [
        f"Figure {fno} (bars). {prefetch.capitalize()} prefetching — "
        f"glyphs: " + " ".join(f"{g}={c}" for c, g in _BAR_GLYPHS.items()),
        "",
    ]
    for app in paper_data.APP_ORDER:
        if app not in pairs:
            continue
        std, nwc = pairs[app]
        base = sum(std.breakdown.values())
        for label, res in (("std", std), ("nwc", nwc)):
            bar = ""
            for c in comps:
                frac = res.breakdown[c] / base if base else 0.0
                bar += _BAR_GLYPHS[c] * round(frac * width)
            lines.append(f"{app:>6s} {label} |{bar}")
        lines.append("")
    return "\n".join(lines)
