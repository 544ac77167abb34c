"""Centralized (sequential) colorings used as correctness oracles.

These are *not* distributed algorithms; they provide reference palettes for
the benchmark reports (a greedy sequential vertex coloring uses at most
``Delta + 1`` colors, a greedy sequential edge coloring at most
``2 Delta - 1``), and quick independent checks that a graph is colorable with
the palette a distributed run claims.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.local_model.fast_network import FastNetwork, fast_view


def greedy_sequential_vertex_coloring(network: FastNetwork) -> Dict[Hashable, int]:
    """Greedy vertex coloring in identifier order (at most ``Delta + 1`` colors)."""
    fast = fast_view(network)
    indptr, indices = fast.indptr.tolist(), fast.indices.tolist()
    column: List[int] = []
    # Dense order is unique-id order: node i's colored neighbors are those below i.
    for i in range(fast.num_nodes):
        taken = {column[j] for j in indices[indptr[i] : indptr[i + 1]] if j < i}
        color = 1
        while color in taken:
            color += 1
        column.append(color)
    return dict(zip(fast.order, column))


def greedy_sequential_edge_coloring(
    network: FastNetwork,
) -> Dict[Tuple[Hashable, Hashable], int]:
    """Greedy edge coloring (at most ``2 Delta - 1`` colors).

    Edges are processed in the deterministic order of
    :meth:`~repro.local_model.fast_network.FastNetwork.edges`; each edge takes
    the smallest color unused by the already-colored edges sharing an
    endpoint.
    """
    edge_colors: Dict[Tuple[Hashable, Hashable], int] = {}
    incident: Dict[Hashable, Set[int]] = {node: set() for node in fast_view(network).order}
    for edge in network.edges():
        u, v = edge
        taken = incident[u] | incident[v]
        color = 1
        while color in taken:
            color += 1
        edge_colors[edge] = color
        incident[u].add(color)
        incident[v].add(color)
    return edge_colors
