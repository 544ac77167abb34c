#!/usr/bin/env python3
"""Compare a fresh engine-speedup record against the committed baseline.

The CI perf-regression gate runs the quick-mode benchmarks
(``REPRO_BENCH_QUICK=1 REPRO_BENCH_RECORD=1``), which write fresh results
JSONs, and then calls this script once per record to compare it against the
committed baseline (``benchmarks/results/engine_speedup_quick.json`` and
``benchmarks/results/dynamic_churn_quick.json``).  The build fails when any
*speedup ratio* regressed by more than the tolerance (default 30%).

Why ratios and not wall times: CI machines differ wildly in absolute speed,
so comparing seconds across runners would flake constantly.  The speedup of
one engine over another on the *same* machine in the *same* run cancels the
machine out -- a >30% drop in ``vectorized/reference`` or in the fused
kernels' ``compiled/vectorized`` ratio means the faster path genuinely lost
ground relative to the slower one, i.e. a real performance regression in the
path the ratio's numerator-side measures.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/results/engine_speedup_quick.json \
        --fresh /tmp/fresh.json [--tolerance 0.30]

Exit status 0 when every ratio is within tolerance, 1 on regression or on a
structurally incomparable pair of records (no common sizes, missing ratios).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The ratios the gate watches (higher is better).  The first is the
#: *end-to-end* wall-clock ratio of the vectorized engine (numpy path) over
#: the reference scheduler, which covers the driver-level costs (state
#: marshalling, path bookkeeping, sub-network derivation) as well as the
#: kernels.
SPEEDUP_KEYS = (
    "speedup_vectorized_over_reference",
    "speedup_fast_line_setup_over_legacy",
    "speedup_incremental_over_recompute",
    # The vectorized baseline kernels behind the portfolio facade, each over
    # the same pipeline on the reference scheduler.
    "speedup_luby_vectorized_over_reference",
    "speedup_pr_vectorized_over_reference",
    "speedup_luby_edge_vectorized_over_reference",
    # The fused kernels over the numpy path, both on the vectorized engine.
    # Present in a record only when a kernel backend resolved at record
    # time; a fresh CI record that *lost* the ratio (backend stopped
    # resolving) fails the gate, which is the point.
    "speedup_compiled_over_vectorized",
)

#: Row sections of the results record the gate compares.  "sizes" is the
#: Legal-Color column (or, for ``dynamic_churn`` records, the churn column);
#: "edge_sizes" is the end-to-end edge-coloring column (CSR line-graph
#: builder + Corollary 5.4 kernel); "setup_sizes" is the workload-setup
#: column (CSR line graph + array oracles vs. ``to_network()`` + the
#: ``Network`` line graph + mapping oracles).  All but "sizes" are optional
#: so records from before those pipelines stay comparable.
SECTIONS = ("sizes", "edge_sizes", "setup_sizes")


def load_sizes(path: Path) -> dict:
    """Map ``(section, n, degree) -> size row`` from a results record."""
    record = json.loads(path.read_text())
    if not isinstance(record.get("sizes"), list) or not record["sizes"]:
        raise SystemExit(f"{path}: no 'sizes' rows -- not an engine-speedup record")
    return {
        (section, row["n"], row["degree"]): row
        for section in SECTIONS
        for row in record.get(section) or []
    }


def compare(baseline_path: Path, fresh_path: Path, tolerance: float) -> int:
    baseline = load_sizes(baseline_path)
    fresh = load_sizes(fresh_path)
    common = sorted(set(baseline) & set(fresh))
    if not common:
        print(
            f"ERROR: no common (n, degree) sizes between {baseline_path} "
            f"({sorted(baseline)}) and {fresh_path} ({sorted(fresh)})"
        )
        return 1

    failures = 0
    checks = 0
    for size in common:
        section, n, _degree = size
        label = f"{section}:n={n}"
        base_row, fresh_row = baseline[size], fresh[size]
        for key in SPEEDUP_KEYS:
            if key not in base_row:
                continue
            if key not in fresh_row:
                print(f"ERROR: {label}: fresh record lacks {key}")
                failures += 1
                continue
            base_value = float(base_row[key])
            fresh_value = float(fresh_row[key])
            floor = base_value * (1.0 - tolerance)
            verdict = "ok" if fresh_value >= floor else "REGRESSION"
            checks += 1
            print(
                f"{label:>20} {key:<34} baseline={base_value:8.2f}x "
                f"fresh={fresh_value:8.2f}x floor={floor:8.2f}x  {verdict}"
            )
            if fresh_value < floor:
                failures += 1
        if not fresh_row.get("identical_outputs", False):
            print(f"ERROR: {label}: engines no longer produce identical outputs")
            failures += 1

    if checks == 0:
        print("ERROR: no comparable speedup ratios found")
        return 1
    if failures:
        print(
            f"\n{failures} regression(s) beyond the {tolerance:.0%} tolerance; "
            "if the slowdown is intentional, re-record the baseline with "
            "REPRO_BENCH_QUICK=1 REPRO_BENCH_RECORD=1 and commit the diff."
        )
        return 1
    print(f"\nAll {checks} speedup ratios within {tolerance:.0%} of the baseline.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args()
    return compare(args.baseline, args.fresh, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
