#!/usr/bin/env python3
"""Switch scheduling / packet routing via distributed edge coloring.

The paper's introduction motivates edge coloring with job-shop scheduling,
packet routing and resource allocation: in an input-queued switch (or any
crossbar-like interconnect), the demand between input and output ports forms a
bipartite multigraph, and a legal edge coloring is exactly a schedule -- each
color class is a matching that can be transferred in one time slot, so the
number of colors is the schedule length.

This example builds a random bipartite Delta-regular demand graph, computes a
schedule with (a) the paper's distributed algorithm and (b) the sequential
greedy oracle, validates both schedules, and reports schedule length versus
the optimum (which equals Delta for bipartite graphs, by Konig's theorem).
It then lets the demand churn -- flows arrive and depart in batches -- and
keeps a port-conflict coloring current with a :class:`repro.dynamic.
DynamicColoring` session, comparing the amortized incremental repair cost
against recomputing from scratch on every batch.

Run with:  python examples/switch_scheduling.py
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro import color_edges, graphs
from repro.baselines import greedy_sequential_edge_coloring
from repro.dynamic import DynamicColoring
from repro.verification import assert_legal_edge_coloring


def schedule_from_coloring(edge_colors) -> dict:
    """Group edges by color: each color class is one time slot (a matching)."""
    slots = defaultdict(list)
    for edge, color in edge_colors.items():
        slots[color].append(edge)
    return dict(sorted(slots.items()))


def verify_schedule_is_matchings(slots: dict) -> None:
    """Every slot must be a matching: no port appears twice within a slot."""
    for slot, edges in slots.items():
        ports = [endpoint for edge in edges for endpoint in edge]
        if len(ports) != len(set(ports)):
            raise AssertionError(f"slot {slot} is not a matching")


def main() -> None:
    ports = 16
    demand_degree = 8
    # The demand graph is built as CSR arrays (exact degrees); the whole
    # pipeline below -- line graph, coloring, verification -- stays on the
    # arrays.
    network = graphs.random_bipartite_regular(ports, demand_degree, seed=3)
    print(
        f"switch demand graph: {ports} input ports x {ports} output ports, "
        f"{network.num_edges} demands, Delta = {network.max_degree}"
    )
    print(f"optimal schedule length (Konig): {network.max_degree} slots\n")

    # Distributed schedule: O(Delta) colors in few rounds, computed by the
    # ports themselves with O(log n)-bit messages.  The root `color_edges`
    # is the portfolio facade -- we pin the paper's linear preset and direct
    # route and leave the execution engine at its default, "vectorized".
    distributed = color_edges(network, quality="linear", route="direct")
    assert_legal_edge_coloring(network, distributed.color_column)  # masked-CSR check
    slots = schedule_from_coloring(distributed.edge_colors)
    verify_schedule_is_matchings(slots)
    print("distributed schedule (paper, Theorem 5.5(1)):")
    print(f"  slots (colors)      : {distributed.colors_used}")
    print(f"  rounds to compute   : {distributed.metrics.rounds}")
    print(
        f"  engine (portfolio)  : {distributed.decision.engine}; pinned: "
        f"{', '.join(distributed.decision.overrides)}"
    )
    print(f"  largest slot size   : {max(len(edges) for edges in slots.values())} transfers")

    # Centralized greedy oracle for comparison.
    greedy = greedy_sequential_edge_coloring(network)
    assert_legal_edge_coloring(network, greedy)
    greedy_slots = schedule_from_coloring(greedy)
    verify_schedule_is_matchings(greedy_slots)
    print("\ncentralized greedy oracle:")
    print(f"  slots (colors)      : {len(greedy_slots)}")

    overhead = distributed.colors_used / network.max_degree
    print(
        f"\nThe distributed schedule uses {overhead:.1f}x the optimal number of slots, "
        "but is computed by the switch ports themselves in a handful of communication "
        "rounds, with no central arbiter."
    )

    print("\nfirst three slots of the distributed schedule:")
    for slot, edges in list(slots.items())[:3]:
        rendered = ", ".join(
            f"{u[1]}->{v[1]}" for u, v in (sorted(edge, key=str) for edge in edges)
        )
        print(f"  slot {slot:3d}: {rendered}")

    churn_demo()


def churn_demo() -> None:
    """Keep a flow-conflict coloring current while the demand churns.

    Real switch workloads are not static: flows arrive, depart and get
    re-routed.  Here each *flow* is a vertex of a conflict graph (two flows
    conflict when they share a port), and every batch of re-routes shows up
    as a handful of conflict-edge insertions/removals.  A
    ``strategy="incremental"`` :class:`~repro.dynamic.DynamicColoring`
    session patches the CSR and repairs only the conflicted flows, instead
    of recomputing the whole assignment -- the differential ``recompute``
    session below is fed the identical batches to show what that saves.
    """
    from repro.local_model import build_line_graph_fast

    ports, demand_degree, steps = 64, 8, 6
    demands = graphs.random_bipartite_regular(ports, demand_degree, seed=3)
    conflicts = build_line_graph_fast(demands)
    incremental = DynamicColoring(conflicts, c=2, engine="vectorized")
    recompute = DynamicColoring(
        conflicts, c=2, strategy="recompute", engine="vectorized"
    )
    print(
        f"\nchurning demand: {demands.num_edges} flows, "
        f"{incremental.network.num_edges} port conflicts, "
        f"{steps} re-route batches"
    )

    rng = np.random.default_rng(7)
    n = incremental.network.num_nodes
    batch = max(1, incremental.network.num_edges // 100)
    inc_seconds = rec_seconds = 0.0
    repaired = 0
    for _ in range(steps):
        fast = incremental.network
        forward = fast.rows_np < fast.indices_np
        edge_u, edge_v = fast.rows_np[forward], fast.indices_np[forward]
        pick = rng.integers(0, len(edge_u), size=batch)
        removed = (edge_u[pick].copy(), edge_v[pick].copy())
        add_u = rng.integers(0, n, size=batch)
        add_v = rng.integers(0, n, size=batch)
        loopless = add_u != add_v
        added = (add_u[loopless], add_v[loopless])

        started = time.perf_counter()
        report = incremental.apply_updates(added=added, removed=removed)
        inc_seconds += time.perf_counter() - started
        started = time.perf_counter()
        recompute.apply_updates(added=added, removed=removed)
        rec_seconds += time.perf_counter() - started

        incremental.verify()  # legal after every batch
        recompute.verify()
        repaired += report.repaired_nodes

    print(f"  flows repaired      : {repaired} (of {n * steps} flow-slots)")
    print(f"  incremental / batch : {1000 * inc_seconds / steps:.2f} ms")
    print(f"  recompute / batch   : {1000 * rec_seconds / steps:.2f} ms")
    print(
        f"  amortized advantage : {rec_seconds / max(inc_seconds, 1e-9):.1f}x "
        "cheaper per batch, verified legal after every batch"
    )


if __name__ == "__main__":
    main()
