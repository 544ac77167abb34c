"""Figure 3 reproduction: the Legal-Color recursion tree and its color accounting.

Figure 3 depicts the recursion tree of Procedure Legal-Color: every node of
level j is split into p children, all invocations of one level share the same
degree bound Lambda^{(j)}, and the palettes are merged bottom-up via
theta^{(j)} = p * theta^{(j+1)} so that sibling subgraphs use disjoint
palettes.  Lemma 4.4's telescoping of theta^{(0)} = p^r (hat-Lambda + 1) is
what yields the O(Delta) / O(Delta^{1+eps}) color bounds.

The harness runs the procedure with instrumentation enabled, prints one row
per recursion level (the per-level degree bound, the number of non-empty
subgraphs, the measured subgraph degree, and the palette multiplier), and
verifies the Figure 3 invariants.
"""

from __future__ import annotations

from common_bench import print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core.legal_coloring import run_legal_coloring
from repro.core.parameters import params_for_few_rounds
from repro.local_model import build_line_graph_fast
from repro.verification import assert_legal_vertex_coloring


def _run():
    base = graphs.random_regular(44, 16, seed=23)
    line = build_line_graph_fast(base)
    params = params_for_few_rounds(line.max_degree, c=2)
    result = run_legal_coloring(line, params, c=2)
    assert_legal_vertex_coloring(line, result.colors)
    return line, params, result


def test_fig3_recursion_tree(benchmark):
    line, params, result = _run()

    theta = result.bottom_degree_bound + 1
    thetas = [theta]
    for _ in range(result.num_levels):
        theta *= params.p
        thetas.append(theta)
    thetas.reverse()  # thetas[j] = palette bound of a level-j invocation

    rows = []
    for trace in result.levels:
        rows.append(
            [
                trace.level,
                trace.degree_bound,
                trace.num_subgraphs,
                trace.max_subgraph_degree,
                trace.next_degree_bound,
                trace.rounds,
                thetas[trace.level],
            ]
        )
    rows.append(
        [
            "bottom",
            result.bottom_degree_bound,
            "-",
            "-",
            "-",
            "-",
            result.bottom_degree_bound + 1,
        ]
    )

    print_section("Figure 3 -- the Legal-Color recursion tree (one row per level)")
    print(
        f"parameters: p={params.p}, b={params.b}, "
        f"lambda={params.threshold}, Delta(L(G))={line.max_degree}"
    )
    print(
        format_table(
            [
                "level",
                "Lambda^(j)",
                "subgraphs",
                "measured max degree",
                "Lambda^(j+1)",
                "rounds",
                "theta^(j)",
            ],
            rows,
        )
    )
    print(
        f"\nFinal palette theta^(0) = p^r * (hat-Lambda + 1) = "
        f"{params.p}^{result.num_levels} * {result.bottom_degree_bound + 1} = {result.palette}; "
        f"colors actually used: {result.colors_used}."
    )

    # Figure 3 invariants.
    assert result.palette == (result.bottom_degree_bound + 1) * params.p ** result.num_levels
    for trace in result.levels:
        assert trace.max_subgraph_degree <= trace.degree_bound
        assert trace.num_subgraphs <= params.p ** (trace.level + 1)

    base = graphs.random_regular(44, 16, seed=23)
    line = build_line_graph_fast(base)
    run_once(benchmark, lambda: run_legal_coloring(line, params, c=2))
