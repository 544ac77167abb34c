"""Structural property checkers.

These implement the definitions of Section 1.2 and Section 3 of the paper:

* the neighborhood independence ``I(G)`` (Definition 3.1) -- the maximum size
  of an independent subset of a single vertex's neighborhood,
* bounded growth -- the number of independent vertices within distance ``r``
  of a vertex,
* claw-freeness -- excluding ``K_{1,3}`` as an induced subgraph, which is
  exactly neighborhood independence at most 2.

Exact neighborhood-independence computation is NP-hard in general, but the
neighborhoods arising in the test workloads are small, and the bounded check
:func:`has_neighborhood_independence_at_most` only needs to search for an
independent set of size ``c + 1``, which is polynomial for constant ``c``.

The checkers walk dense indices over the CSR rows and report results under
the view's ``order`` identifiers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Set

from repro.local_model.fast_network import FastNetwork, fast_view


def _neighbor_sets(network: FastNetwork) -> List[Set[int]]:
    """Each node's neighbors as a set of dense indices."""
    fast = fast_view(network)
    indptr, indices = fast.indptr.tolist(), fast.indices.tolist()
    return [set(indices[indptr[i] : indptr[i + 1]]) for i in range(fast.num_nodes)]


def _is_independent(adjacency: List[Set[int]], vertices: Sequence[int]) -> bool:
    """Whether the given vertices are pairwise non-adjacent."""
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if v in adjacency[u]:
                return False
    return True


def _max_independent_subset_size(adjacency: List[Set[int]], candidates: Sequence[int]) -> int:
    """Exact maximum independent set size within ``candidates``.

    Uses a simple branch-and-bound over the candidate set; intended for
    neighborhoods (size ``<= Delta``), not whole graphs.
    """
    candidates = tuple(candidates)
    if not candidates:
        return 0

    local = {u: adjacency[u].intersection(candidates) for u in candidates}

    best = 0

    def branch(remaining: List[int], chosen: int) -> None:
        nonlocal best
        if chosen > best:
            best = chosen
        if not remaining or chosen + len(remaining) <= best:
            return
        vertex = remaining[0]
        rest = remaining[1:]
        # Branch 1: include `vertex`.
        branch([v for v in rest if v not in local[vertex]], chosen + 1)
        # Branch 2: exclude `vertex`.
        branch(rest, chosen)

    branch(list(candidates), 0)
    return best


def neighborhood_independence(network: FastNetwork) -> int:
    """The neighborhood independence ``I(G)`` (Definition 3.1).

    Returns 0 for a graph with no edges (every neighborhood is empty).
    """
    adjacency = _neighbor_sets(network)
    best = 0
    for neighborhood in adjacency:
        if len(neighborhood) <= best:
            continue
        best = max(best, _max_independent_subset_size(adjacency, sorted(neighborhood)))
    return best


def has_neighborhood_independence_at_most(network: FastNetwork, c: int) -> bool:
    """Whether ``I(G) <= c``.

    Cheaper than computing ``I(G)`` exactly: it only searches each
    neighborhood for an independent set of ``c + 1`` vertices and stops at the
    first witness.
    """
    adjacency = _neighbor_sets(network)
    if c < 0:
        return network.max_degree == 0
    for neighborhood in adjacency:
        if len(neighborhood) <= c:
            continue
        for subset in itertools.combinations(sorted(neighborhood), c + 1):
            if _is_independent(adjacency, subset):
                return False
    return True


def is_claw_free(network: FastNetwork) -> bool:
    """Whether the graph excludes ``K_{1,3}`` as an induced subgraph.

    A graph is claw-free exactly when its neighborhood independence is at
    most 2 (the paper notes the general correspondence between excluding
    ``K_{1,r+1}`` and independence at most ``r``).
    """
    return has_neighborhood_independence_at_most(network, 2)


def growth_function(network: FastNetwork, vertex: Hashable, radius: int) -> int:
    """The number of independent vertices within distance ``radius`` of ``vertex``.

    A family of graphs is of bounded growth when this quantity is bounded by a
    function of ``radius`` only; Figure 1's graph violates this at radius 2
    despite having neighborhood independence 2.

    The returned value is the size of a maximal (greedy) independent set among
    the vertices at distance at most ``radius``, which lower-bounds the true
    maximum and is sufficient to certify *unbounded* growth.
    """
    adjacency = _neighbor_sets(network)
    order = network.order
    start = network.index_of[vertex]
    # Breadth-first search up to the radius.
    frontier = {start}
    reached = {start}
    for _ in range(radius):
        next_frontier = set()
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        frontier = next_frontier
    ball = sorted(reached - {start}, key=lambda node: repr(order[node]))

    independent: List[int] = []
    for candidate in ball:
        if all(chosen not in adjacency[candidate] for chosen in independent):
            independent.append(candidate)
    return len(independent)


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary statistics of a network's degree sequence."""

    num_nodes: int
    num_edges: int
    max_degree: int
    min_degree: int
    average_degree: float


def degree_statistics(network: FastNetwork) -> DegreeStatistics:
    """Compute basic degree statistics (used by the benchmark reports)."""
    degrees = fast_view(network).degrees.tolist()
    if not degrees:
        return DegreeStatistics(0, 0, 0, 0, 0.0)
    return DegreeStatistics(
        num_nodes=network.num_nodes,
        num_edges=network.num_edges,
        max_degree=max(degrees),
        min_degree=min(degrees),
        average_degree=sum(degrees) / len(degrees),
    )
