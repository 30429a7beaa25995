#!/usr/bin/env python
"""Guard BENCH_kernel.json throughput against regressions.

Compares a freshly measured report (``scripts/bench_report.py`` output)
against the committed baseline record, walking both trees for matching
numeric leaves:

* ``*_per_second`` metrics (throughput)  -> a drop of more than
  ``--tolerance`` (default 20%) FAILS the check; smaller drops warn.
* ``*_seconds`` metrics (wall-clock)     -> warn-only, at any size.
  Absolute wall-clock is hostage to the CI machine's load and thermal
  state; throughput ratios measured in one process are far steadier.

Improvements and metrics present on only one side are reported but never
fail.  Exit status: 0 = ok (possibly with warnings), 1 = at least one
throughput regression beyond tolerance.

Usage:
    python scripts/check_bench.py NEW.json --baseline BENCH_kernel.json
        [--tolerance 0.20]
"""

import argparse
import json
import sys
from pathlib import Path

#: hard floors for pair.apps.<app>.speedup_vs_baseline_generator —
#: absolute, not relative to the committed report.  These are the
#: swap-dominated apps whose pairs ran below 1.0 (0.72-0.81) while the
#: deleted epoch executor made speculative jump attempts.  Each floor is
#: 90% of the lower of two measurements taken for the committed record:
#: the figure in the record itself (em3d 1.11, gauss 0.83, radix 1.00,
#: mg 0.98) and the app's lowest within-run warm-vs-generator ratio
#: across the pair and ablation sections (em3d 0.99, gauss 0.99, radix
#: 1.09, mg 1.08).
PAIR_FLOORS = {
    "em3d": 0.89,
    "gauss": 0.75,
    "radix": 0.90,
    "mg": 0.88,
}


def numeric_leaves(tree, prefix=""):
    """Flatten nested dicts to ``{"a.b.c": value}`` for numeric leaves."""
    out = {}
    if isinstance(tree, dict):
        for key, val in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(numeric_leaves(val, path))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[prefix] = float(tree)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", type=Path, help="fresh BENCH_kernel report")
    ap.add_argument("--baseline", type=Path, default=Path("BENCH_kernel.json"))
    ap.add_argument(
        "--tolerance", type=float, default=0.20,
        help="fractional throughput drop that fails (default 0.20)",
    )
    args = ap.parse_args(argv)

    new = numeric_leaves(json.loads(args.report.read_text()))
    old = numeric_leaves(json.loads(args.baseline.read_text()))

    failures = []
    for path, base in sorted(old.items()):
        leaf = path.rsplit(".", 1)[-1]
        if path not in new:
            print(f"note: {path} missing from new report")
            continue
        cur = new[path]
        if leaf.endswith("_per_second") or leaf == "parallel_speedup" \
                or leaf.startswith("speedup") or leaf.endswith("_fraction"):
            if base <= 0:
                continue
            change = (cur - base) / base
            if change < -args.tolerance:
                failures.append(path)
                print(f"FAIL: {path}: {cur:,.0f} vs baseline {base:,.0f} "
                      f"({change:+.1%})")
            elif change < 0:
                print(f"warn: {path}: {cur:,.0f} vs baseline {base:,.0f} "
                      f"({change:+.1%})")
        elif leaf.endswith("_seconds") and base > 0:
            change = (cur - base) / base
            if change > args.tolerance:
                print(f"warn: {path}: {cur:.3f}s vs baseline {base:.3f}s "
                      f"({change:+.1%}) [wall-clock, non-blocking]")

    for app, floor in sorted(PAIR_FLOORS.items()):
        path = f"pair.apps.{app}.speedup_vs_baseline_generator"
        cur = new.get(path)
        if cur is None:
            continue
        if cur < floor:
            failures.append(path)
            print(f"FAIL: {path}: {cur:.3f} below per-app floor {floor}")

    if failures:
        print(f"{len(failures)} throughput regression(s) beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print("bench check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
