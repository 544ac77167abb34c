#!/usr/bin/env python3
"""Quickstart: distributed edge coloring of a random graph.

Builds a random regular graph, runs the paper's O(Delta^{1+eta})-edge-coloring
algorithm (Theorem 5.5(2)) on the synchronous message-passing simulator,
verifies that the coloring is legal, and prints the measured cost next to the
(2 Delta - 1)-coloring baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import color_edges, graphs
from repro.baselines import panconesi_rizzi_edge_coloring
from repro.verification import assert_legal_edge_coloring


def main() -> None:
    # A 12-regular communication network on 48 nodes.
    network = graphs.random_regular(n=48, degree=12, seed=7)
    print(f"graph: n={network.num_nodes}, |E|={network.num_edges}, Delta={network.max_degree}")

    # `repro.color_edges` is the auto-tuning portfolio facade: it picks the
    # algorithm, quality preset and route for this instance (the route with
    # the smaller planned palette), runs on the default engine, and records
    # every choice.
    auto = color_edges(network)
    decision = auto.decision
    print("\nportfolio decision for this instance:")
    print(
        f"  algorithm={decision.algorithm}, engine={decision.engine}, "
        f"quality={decision.quality}, route={decision.route}"
    )
    print(f"  engine reason      : {decision.reasons['engine']}")
    print(f"  route reason       : {decision.reasons['route']}")

    # The paper's fast tradeoff point, pinned explicitly.  Pinned knobs are
    # passed through untouched and show up in `result.decision.overrides`.
    result = color_edges(network, quality="superlinear", route="direct")
    assert_legal_edge_coloring(network, result.edge_colors)
    print("\nnew algorithm (Theorem 5.5(2)):")
    print(f"  colors used        : {result.colors_used}  (palette bound {result.palette})")
    print(f"  rounds             : {result.metrics.rounds}")
    print(f"  max message size   : {result.metrics.max_message_words} words of O(log n) bits")
    print(f"  recursion levels   : {len(result.levels)}")

    # The classical deterministic baseline: (2 Delta - 1) colors, rounds linear in Delta.
    baseline = panconesi_rizzi_edge_coloring(network)
    assert_legal_edge_coloring(network, baseline.edge_colors)
    print("\nPanconesi-Rizzi-style baseline:")
    print(f"  colors used        : {baseline.colors_used}  (palette bound {baseline.palette})")
    print(f"  rounds             : {baseline.metrics.rounds}")

    speedup = baseline.metrics.rounds / max(1, result.metrics.rounds)
    print(
        f"\nThe new algorithm finished {speedup:.1f}x faster (in rounds) while using "
        f"{result.colors_used} instead of {baseline.colors_used} colors -- the paper's tradeoff."
    )

    # Inspect the edges at one vertex through the convenience lookup.
    u = network.nodes()[0]
    print(f"\nedge colors at vertex {u}:")
    for v in network.neighbor_ids[0]:
        print(f"  ({u}, {v}) -> color {result.color_of(u, v)}")


if __name__ == "__main__":
    main()
