"""Theorem 3.7 / Corollary 3.8 reproduction: defect x colors linear in Delta.

The paper's central technical point (Section 1.3): for graphs of bounded
neighborhood independence, Procedure Defective-Color produces an
O(Delta/p)-defective p-coloring, so the product (defect x number of colors) is
O(Delta) -- whereas the previously known routines (Lemma 2.1(3), [19]) give an
O(Delta/p)-defective p^2-coloring, a product of O(Delta * p).

The harness sweeps p on a line-graph workload, measures the defect of both
colorings, and prints the two products side by side.
"""

from __future__ import annotations

from common_bench import print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core import run_defective_color
from repro.local_model import build_line_graph_fast
from repro.local_model import Scheduler
from repro.primitives.kuhn_defective import defective_coloring_pipeline
from repro.verification import coloring_defect

P_VALUES = (2, 3, 4, 6)


def _sweep():
    base = graphs.random_regular(40, 10, seed=31)
    line = build_line_graph_fast(base)
    Lambda = line.max_degree

    rows = []
    for p in P_VALUES:
        b = max(1, Lambda // (3 * p))
        if b * p > Lambda:
            continue
        # New: Procedure Defective-Color -- p colors.
        psi, info, metrics = run_defective_color(line, b=b, p=p, c=2)
        new_defect = coloring_defect(line, psi)
        new_colors = len(set(psi.values()))

        # Previous: Kuhn-style defective coloring with the same target defect
        # -- O(p^2) colors.
        pipeline, old_palette = defective_coloring_pipeline(
            n=line.num_nodes,
            degree_bound=Lambda,
            target_defect=max(1, Lambda // p),
            output_key="old",
        )
        old_result = Scheduler(line).run(pipeline)
        old_colors_map = old_result.extract("old")
        old_defect = coloring_defect(line, old_colors_map)
        old_colors = len(set(old_colors_map.values()))

        rows.append(
            [
                p,
                new_defect,
                new_colors,
                info.psi_defect_bound * p,
                old_defect,
                old_colors,
                max(1, Lambda // p) * old_palette,
                metrics.rounds,
            ]
        )
    return Lambda, rows


def test_defect_times_colors_product(benchmark):
    Lambda, rows = _sweep()
    print_section(
        "Theorem 3.7 / Corollary 3.8 -- defect x colors: "
        "new procedure vs. previous defective coloring"
        f"  (Delta(L(G)) = {Lambda})"
    )
    print(
        format_table(
            [
                "p",
                "new measured defect",
                "new colors",
                "new product bound (defect x colors)",
                "prev measured defect",
                "prev colors",
                "prev product bound",
                "new rounds",
            ],
            rows,
        )
    )
    print(
        "\nThe new procedure's defect-times-colors bound stays within a constant"
        " factor of Delta across the whole sweep of p (Corollary 3.8), while the"
        " previous routine's bound grows with p because its palette is O(p^2) --"
        " exactly the gap Section 1.3 identifies."
    )

    # Quantitative check: the new product bound is O(Delta) -- within a small
    # constant factor of Delta(L(G)) -- for every p in the sweep.
    for row in rows:
        assert row[3] <= 8 * Lambda + 8 * row[0]

    base = graphs.random_regular(40, 10, seed=31)
    line = build_line_graph_fast(base)
    run_once(benchmark, lambda: run_defective_color(line, b=1, p=4, c=2))
