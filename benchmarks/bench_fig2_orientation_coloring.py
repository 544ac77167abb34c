"""Figure 2 / Lemma 3.4 reproduction: coloring along an acyclic orientation.

Lemma 3.4 (illustrated by Figure 2) shows that a graph with an acyclic
orientation of out-degree d is (d + 1)-colorable, by letting every vertex wait
for its out-neighbors before picking a free color; the number of rounds this
takes is the length of the longest directed path.  Procedure Defective-Color
relies on exactly this argument (Lemma 3.5) to bound the chromatic number of
every psi-color class.

The harness builds the Lemma 3.5 orientation on each psi-class of a real
Defective-Color run, verifies acyclicity and the out-degree bound, and
reports the implied chromatic bound versus the class's actual maximum degree
(which Theorem 3.7 then bounds via the independence assumption).
"""

from __future__ import annotations

import numpy as np

from common_bench import print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core import run_defective_color
from repro.local_model import build_line_graph_fast
from repro.graphs.orientation import (
    acyclic_orientation_from_coloring,
    is_acyclic_orientation,
    longest_directed_path_length,
    max_out_degree,
)


def _sweep():
    base = graphs.random_regular(40, 8, seed=21)
    line = build_line_graph_fast(base)
    Lambda = line.max_degree
    p = 4
    b = max(1, Lambda // (3 * p))
    psi, info, _ = run_defective_color(line, b=b, p=p, c=2)

    # The phi-coloring inside the procedure orders the recoloring; for the
    # Figure 2 illustration we orient every psi-class by the identifiers
    # (exactly the Lemma 3.5 tie-breaking rule) and check Lemma 3.4's bound.
    rows = []
    for klass in sorted(set(psi.values())):
        in_class = np.array([psi[node] == klass for node in line.nodes()])
        subgraph = line.induced(in_class)[0]
        ids = {node: subgraph.unique_id(node) for node in subgraph.nodes()}
        orientation = acyclic_orientation_from_coloring(subgraph, ids)
        assert is_acyclic_orientation(subgraph, orientation)
        out_degree = max_out_degree(subgraph, orientation)
        path_length = longest_directed_path_length(subgraph, orientation)
        rows.append(
            [
                klass,
                subgraph.num_nodes,
                subgraph.max_degree,
                out_degree,
                out_degree + 1,
                path_length,
                info.psi_defect_bound,
            ]
        )
        assert subgraph.max_degree <= info.psi_defect_bound
    return line, rows


def test_fig2_orientation_coloring(benchmark):
    line, rows = _sweep()
    print_section("Figure 2 / Lemma 3.4 -- acyclic orientations of the psi-classes")
    print(
        format_table(
            [
                "psi class",
                "vertices",
                "max degree",
                "orientation out-degree",
                "Lemma 3.4 color bound",
                "longest directed path (rounds)",
                "Thm 3.7 degree bound",
            ],
            rows,
        )
    )
    print(
        "\nEvery class admits an acyclic orientation whose out-degree (and hence"
        " chromatic number minus one) is small, which is the mechanism behind"
        " Theorem 3.7's defect bound."
    )

    base = graphs.random_regular(40, 8, seed=21)
    line = build_line_graph_fast(base)
    Lambda = line.max_degree
    run_once(
        benchmark,
        lambda: run_defective_color(line, b=max(1, Lambda // 12), p=4, c=2),
    )
