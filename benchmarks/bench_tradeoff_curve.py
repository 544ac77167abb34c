"""Corollary 6.3 reproduction: the O(Delta^2 / g(Delta))-colors tradeoff curve.

For any monotone non-decreasing g, the paper gets an O(Delta^2 / g(Delta))-
coloring of bounded-independence graphs in roughly O(log g(Delta)) + log* n
rounds: a Lemma 2.1(3) defective split into O((Delta/q)^2) classes of degree
q = g^{1/(1-eta)}, followed by the Theorem 4.8(2) algorithm inside every class.

The harness sweeps g over {constant, Delta^{1/2}, Delta} on a line-graph
workload and prints the colors-vs-rounds curve: larger g means fewer colors
and (moderately) more rounds.
"""

from __future__ import annotations

from common_bench import QUICK, bench_runner, print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core import tradeoff_color_vertices
from repro.experiments import G_FUNCTIONS as G_REGISTRY
from repro.experiments import GraphSpec, Scenario
from repro.local_model import build_line_graph_fast

#: (display label, name in the experiments g-function registry).
G_FUNCTIONS = [
    ("g = 2 (constant)", "constant2"),
    ("g = Delta^0.5", "sqrt"),
    ("g = Delta", "linear"),
]

BASE_N, BASE_DEGREE, BASE_SEED = (24, 8, 61) if QUICK else (40, 12, 61)


def _sweep():
    # The workload is the line graph of a random regular graph; the runner
    # builds it inside each worker from the picklable spec.
    spec = GraphSpec(
        "random_regular", n=BASE_N, degree=BASE_DEGREE, seed=BASE_SEED, line_graph=True
    )
    scenarios = [
        Scenario.make(
            name=f"tradeoff-{g_name}",
            graph=spec,
            algorithm="tradeoff",
            params={"c": 2, "g": g_name},
        )
        for _, g_name in G_FUNCTIONS
    ]
    results = {result.name: result for result in bench_runner().run(scenarios)}

    delta = next(iter(results.values())).max_degree
    rows = []
    for label, g_name in G_FUNCTIONS:
        result = results[f"tradeoff-{g_name}"]
        assert result.verified
        g_value = G_REGISTRY[g_name](delta)
        rows.append(
            [
                label,
                round(delta * delta / g_value, 1),
                result.split_palette,
                result.palette,
                result.colors_used,
                result.rounds,
            ]
        )
    return delta, rows


def test_tradeoff_curve(benchmark):
    delta, rows = _sweep()
    print_section(f"Corollary 6.3 -- colors vs. rounds tradeoff (Delta(L(G)) = {delta})")
    print(
        format_table(
            [
                "g(Delta)",
                "Delta^2/g (analytic)",
                "split classes",
                "palette bound",
                "colors used",
                "rounds",
            ],
            rows,
        )
    )
    print(
        "\nLarger g gives fewer colors at a modest round cost, tracing the"
        " Corollary 6.3 tradeoff curve."
    )

    # Monotonicity along the curve: palettes shrink as g grows.
    palettes = [row[3] for row in rows]
    assert palettes[0] >= palettes[-1]

    base = graphs.random_regular(BASE_N, BASE_DEGREE, seed=BASE_SEED)
    line = build_line_graph_fast(base)
    run_once(
        benchmark,
        lambda: tradeoff_color_vertices(line, c=2, g=lambda d: d**0.5, engine="vectorized"),
    )
