"""Theorems 4.5 / 4.6 / 4.8 reproduction: vertex coloring of bounded-independence graphs.

The paper's vertex-coloring results trade palette size against rounds:

* Theorem 4.8(1): O(Delta) colors in O(Delta^eps) + log* n rounds,
* Theorem 4.8(2): O(Delta^{1+eta}) colors in ~O(log Delta) + log* n rounds,
* Theorem 4.8(3): Delta^{1+o(1)} colors in O((log Delta)^{1+eta}) + log* n rounds.

The harness sweeps the degree of a line-graph workload (independence 2),
measures colors and rounds for the three presets and for a hypergraph
line-graph workload (independence 3), and prints colors normalized by Delta so
the palette exponents can be read off directly.
"""

from __future__ import annotations

from common_bench import print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core import color_vertices
from repro.graphs.hypergraphs import hypergraph_line_graph, random_r_hypergraph
from repro.local_model import build_line_graph_fast
from repro.verification import assert_legal_vertex_coloring

BASE_DEGREES = (6, 10, 14)


def _sweep_line_graphs():
    rows = []
    for degree in BASE_DEGREES:
        base = graphs.random_regular(40, degree, seed=41 + degree)
        line = build_line_graph_fast(base)
        delta = line.max_degree
        per_quality = {}
        for quality in ("linear", "superlinear", "subpolynomial"):
            result = color_vertices(line, c=2, quality=quality)
            assert_legal_vertex_coloring(line, result.colors)
            per_quality[quality] = result
        rows.append(
            [
                delta,
                per_quality["linear"].colors_used,
                round(per_quality["linear"].colors_used / delta, 2),
                per_quality["linear"].metrics.rounds,
                per_quality["superlinear"].colors_used,
                round(per_quality["superlinear"].colors_used / delta, 2),
                per_quality["superlinear"].metrics.rounds,
                per_quality["subpolynomial"].colors_used,
                per_quality["subpolynomial"].metrics.rounds,
            ]
        )
    return rows


def _hypergraph_row():
    hypergraph = random_r_hypergraph(num_vertices=30, num_edges=70, rank=3, seed=5)
    line = hypergraph_line_graph(hypergraph)
    result = color_vertices(line, c=3, quality="superlinear")
    assert_legal_vertex_coloring(line, result.colors)
    return [line.max_degree, result.colors_used, result.metrics.rounds]


def test_vertex_coloring_tradeoff(benchmark):
    rows = _sweep_line_graphs()
    print_section(
        "Theorem 4.8 -- vertex coloring of bounded-independence graphs (line graphs, c = 2)"
    )
    print(
        format_table(
            [
                "Delta",
                "Thm4.8(1) colors",
                "colors/Delta",
                "rounds",
                "Thm4.8(2) colors",
                "colors/Delta",
                "rounds",
                "Thm4.8(3) colors",
                "rounds",
            ],
            rows,
        )
    )

    hg_row = _hypergraph_row()
    print("\nLine graph of a 3-hypergraph (c = 3):")
    print(format_table(["Delta", "colors used", "rounds"], [hg_row]))
    print(
        "\nThe 'colors/Delta' column of the Theorem 4.8(1) preset stays bounded as"
        " Delta grows (O(Delta) colors); the faster presets trade a larger palette"
        " for fewer rounds, as in the paper's tradeoff."
    )

    # The linear-colors preset keeps colors/Delta bounded by a modest constant.
    for row in rows:
        assert row[2] <= 12.0

    base = graphs.random_regular(40, BASE_DEGREES[-1], seed=41 + BASE_DEGREES[-1])
    line = build_line_graph_fast(base)
    run_once(benchmark, lambda: color_vertices(line, c=2, quality="linear"))
