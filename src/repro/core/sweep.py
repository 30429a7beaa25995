"""Parameter-sweep harness: run an experiment grid and tabulate results.

Used by the ablation benches and examples; also a convenient public API
for exploring the design space::

    from repro.core.sweep import sweep
    rows = sweep("sor", prefetch="optimal", data_scale=0.25,
                 ring_channel_bytes=[16*1024, 64*1024, 256*1024])

Exactly one keyword may be a list — the swept axis.  Each returned row
is a flat, JSON-safe dict (swept value + headline metrics) ready for
tabulation or :func:`repro.core.export.save_results`-style persistence;
pass ``keep_results=True`` to additionally embed the full
:class:`~repro.core.machine.RunResult` under ``"result"``.

Sweep points are independent simulations, so they run through
:func:`repro.core.batch.run_batch` — concurrently when ``jobs`` permits,
and against the on-disk result cache when ``cache`` is enabled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.batch import (
    CacheArg,
    ExperimentSpec,
    raise_failures,
    run_batch,
)
from repro.core.machine import RunResult
from repro.core.report import render_table


def _row(
    swept: str, value: Any, res: RunResult, keep_results: bool
) -> Dict[str, Any]:
    row = {
        swept: value,
        "system": res.system,
        "exec_mpcycles": res.exec_time / 1e6,
        "swapout_kpcycles": res.swapout_mean / 1e3,
        "ring_hit_rate": res.ring_hit_rate,
        "combining": res.combining.mean,
        "nofree_fraction": res.breakdown_fractions()["nofree"],
    }
    if keep_results:
        row["result"] = res
    return row


def sweep(
    app: str,
    system: str = "nwcache",
    prefetch: str = "optimal",
    data_scale: float = 0.25,
    min_free: Optional[int] = None,
    keep_results: bool = False,
    jobs: Optional[int] = None,
    cache: CacheArg = False,
    **axes: Any,
) -> List[Dict[str, Any]]:
    """Run ``app`` across one swept SimConfig parameter.

    Exactly one of ``axes`` must be a list/tuple of values; the rest are
    fixed overrides applied to every point.  ``jobs``/``cache`` are
    forwarded to :func:`~repro.core.batch.run_batch` (caching is off by
    default so library callers always observe the current model).
    """
    swept = [k for k, v in axes.items() if isinstance(v, (list, tuple))]
    if len(swept) != 1:
        raise ValueError(
            f"exactly one swept (list-valued) parameter required, got {swept}"
        )
    key = swept[0]
    values = axes.pop(key)
    specs = [
        ExperimentSpec(
            app,
            system,
            prefetch,
            data_scale=data_scale,
            min_free=min_free,
            config={key: value, **axes},
        )
        for value in values
    ]
    # A sweep table with holes is useless: convert any crash-safe
    # FailedSpec slots into one error naming the failed points.
    results = raise_failures(run_batch(specs, jobs=jobs, cache=cache))
    return [
        _row(key, value, res, keep_results)
        for value, res in zip(values, results)
    ]


def tabulate(rows: List[Dict[str, Any]], title: str = "sweep") -> str:
    """Render sweep rows as a fixed-width table."""
    if not rows:
        raise ValueError("no rows to tabulate")
    key = next(iter(rows[0]))
    header = [key, "exec Mpc", "swap-out K", "hit rate", "combining", "nofree"]
    body = [
        [
            str(r[key]),
            f"{r['exec_mpcycles']:.1f}",
            f"{r['swapout_kpcycles']:.1f}",
            f"{r['ring_hit_rate']:.1%}",
            f"{r['combining']:.2f}",
            f"{r['nofree_fraction']:.1%}",
        ]
        for r in rows
    ]
    return render_table(title, header, body)
