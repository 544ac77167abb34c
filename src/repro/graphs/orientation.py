"""Edge orientations.

Section 3 of the paper uses *acyclic orientations of bounded out-degree*: an
orientation assigns a direction to every edge, and Lemma 3.4 shows that a
graph admitting an acyclic orientation with out-degree ``d`` is legally
``(d + 1)``-colorable (and such a coloring is computable distributively by
letting every vertex wait for its out-neighbors, Figure 2).  Lemma 3.5 builds
such an orientation for each color class ``G_i`` of the defective coloring by
orienting every edge towards the endpoint with the smaller ``phi``-color
(ties broken by identifier).

An orientation is represented as a mapping from canonical edges ``(u, v)`` to
the head vertex (the endpoint the edge points *towards*).  The canonical
edges are :meth:`~repro.local_model.fast_network.FastNetwork.edges`: each
pair in unique-id order, listed in pair-key order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Tuple

from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, fast_view

#: An orientation: canonical edge -> head (the vertex the edge points to).
Orientation = Dict[Tuple[Hashable, Hashable], Hashable]


def acyclic_orientation_from_coloring(
    network: FastNetwork, colors: Mapping[Hashable, int]
) -> Orientation:
    """Orient every edge towards the endpoint with the smaller color.

    Ties are broken towards the endpoint with the smaller unique identifier,
    exactly as in the proof of Lemma 3.5.  The resulting orientation is always
    acyclic, regardless of whether ``colors`` is a legal coloring.
    """
    network = fast_view(network)
    orientation: Orientation = {}
    for u, v in network.edges():
        cu, cv = colors[u], colors[v]
        # u precedes v in unique-id order, so a color tie points at u.
        if cu <= cv:
            head = u
        else:
            head = v
        orientation[(u, v)] = head
    return orientation


def out_neighbors(
    network: FastNetwork, orientation: Orientation, vertex: Hashable
) -> Tuple[Hashable, ...]:
    """Vertices reached by edges oriented *out of* ``vertex``."""
    network = fast_view(network)
    result = []
    for u, v in network.edges():
        if vertex not in (u, v):
            continue
        head = orientation[(u, v)]
        if head != vertex:
            result.append(head)
    return tuple(result)


def max_out_degree(network: FastNetwork, orientation: Orientation) -> int:
    """The out-degree of the orientation (maximum over all vertices)."""
    network = fast_view(network)
    out_degree: Dict[Hashable, int] = {node: 0 for node in network.nodes()}
    for edge, head in orientation.items():
        u, v = edge
        tail = v if head == u else u
        out_degree[tail] += 1
    return max(out_degree.values(), default=0)


def is_acyclic_orientation(network: FastNetwork, orientation: Orientation) -> bool:
    """Whether the orientation contains no directed cycle."""
    network = fast_view(network)
    _validate_orientation(network, orientation)
    # Kahn's algorithm on the directed graph defined by the orientation.
    in_degree: Dict[Hashable, int] = {node: 0 for node in network.nodes()}
    successors: Dict[Hashable, list] = {node: [] for node in network.nodes()}
    for edge, head in orientation.items():
        u, v = edge
        tail = v if head == u else u
        successors[tail].append(head)
        in_degree[head] += 1

    queue = [node for node, deg in in_degree.items() if deg == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for successor in successors[node]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                queue.append(successor)
    return visited == network.num_nodes


def longest_directed_path_length(network: FastNetwork, orientation: Orientation) -> int:
    """The number of edges on the longest directed path of an acyclic orientation.

    This is the round complexity of the Lemma 3.4 coloring procedure (every
    vertex waits for its out-neighbors before choosing a color).
    """
    network = fast_view(network)
    if not is_acyclic_orientation(network, orientation):
        raise InvalidParameterError("longest path is only defined for acyclic orientations")

    successors: Dict[Hashable, list] = {node: [] for node in network.nodes()}
    for edge, head in orientation.items():
        u, v = edge
        tail = v if head == u else u
        successors[tail].append(head)

    memo: Dict[Hashable, int] = {}

    def depth(node: Hashable) -> int:
        if node in memo:
            return memo[node]
        memo[node] = 0  # placeholder (graph is acyclic, so no real cycles)
        best = 0
        for successor in successors[node]:
            best = max(best, 1 + depth(successor))
        memo[node] = best
        return best

    return max((depth(node) for node in network.nodes()), default=0)


def _validate_orientation(network: FastNetwork, orientation: Orientation) -> None:
    """Check that the orientation covers exactly the network's edges."""
    edges = set(network.edges())
    given = set(orientation.keys())
    if edges != given:
        missing = edges - given
        extra = given - edges
        raise InvalidParameterError(
            f"orientation does not match edge set (missing={len(missing)}, extra={len(extra)})"
        )
    for edge, head in orientation.items():
        if head not in edge:
            raise InvalidParameterError(f"head {head!r} is not an endpoint of edge {edge!r}")
