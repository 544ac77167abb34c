"""Dict-and-set oracles for the CSR graph type.

Everything here reads a :class:`FastNetwork` only through its ``order``,
``unique_ids`` and per-node neighbor identifiers, and recomputes the rest
with plain dictionaries, sets and sorts:

* the canonical edge list (each pair in unique-id order, pairs sorted by
  their unique-id pair);
* the line graph ``L(G)`` built pair by pair from the incident edges of each
  vertex, with the pair-sorted unique ids ``1..|E|`` of Lemma 5.2;
* the line graph ``L(H)`` of a hypergraph, every pair of hyperedges tested
  for a shared vertex;
* spanning and induced subgraphs built from filtered adjacency dicts;
* the node-by-node legality scans and defect counts of vertex and edge
  colorings, raising the library's exact error texts, and a hyperedge
  coloring's legality read off the incidence, without ``L(H)``.

The library's array code (``build_line_graph_fast``, the CSR masks, the
verification kernels) must agree with them, so a fault in the shared CSR
code cannot hide behind two engines agreeing with each other.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import ColoringError
from repro.graphs.hypergraphs import Hypergraph
from repro.local_model import FastNetwork, build_line_graph_fast

Edge = Tuple[Hashable, Hashable]


def unique_ids(g: FastNetwork) -> Dict[Hashable, int]:
    """``node -> unique id``."""
    return dict(zip(g.order, g.unique_ids.tolist()))


def adjacency(g: FastNetwork) -> Dict[Hashable, Tuple[Hashable, ...]]:
    """``node -> neighbors`` in unique-id order, nodes in unique-id order."""
    uid = unique_ids(g)
    nodes = sorted(g.order, key=uid.__getitem__)
    neighbors = dict(zip(g.order, g.neighbor_ids))
    return {node: tuple(sorted(neighbors[node], key=uid.__getitem__)) for node in nodes}


def edges(g: FastNetwork) -> List[Edge]:
    """The canonical edges: ``(u, v)`` with ``Id(u) < Id(v)``, sorted by that pair."""
    uid = unique_ids(g)
    pairs = {
        (u, v) if uid[u] < uid[v] else (v, u)
        for u, neighbors in adjacency(g).items()
        for v in neighbors
    }
    return sorted(pairs, key=lambda edge: (uid[edge[0]], uid[edge[1]]))


def line_graph(g: FastNetwork) -> Tuple[Dict[Edge, List[Edge]], Dict[Edge, int]]:
    """``L(G)`` as ``(adjacency, unique_ids)`` keyed by canonical edge.

    Two edges are adjacent iff they share an endpoint; the unique ids are
    ``1..|E|`` along the sorted pairs ``(Id(u), Id(v))``.
    """
    canonical = edges(g)
    ids = {edge: index + 1 for index, edge in enumerate(canonical)}
    incident: Dict[Hashable, List[Edge]] = {node: [] for node in g.order}
    for edge in canonical:
        incident[edge[0]].append(edge)
        incident[edge[1]].append(edge)
    neighbors: Dict[Edge, set] = {edge: set() for edge in canonical}
    for node_edges in incident.values():
        for i, e1 in enumerate(node_edges):
            for e2 in node_edges[i + 1 :]:
                neighbors[e1].add(e2)
                neighbors[e2].add(e1)
    return {edge: sorted(neighbors[edge], key=ids.__getitem__) for edge in canonical}, ids


def line_graph_network(g: FastNetwork) -> FastNetwork:
    """The dict-built ``L(G)`` as a hand-built view (edge-tuple identifiers)."""
    return FastNetwork.from_adjacency(*line_graph(g))


def assert_line_graph_matches(network: FastNetwork, name: str = "") -> None:
    """``build_line_graph_fast(network)`` is the dict-built ``L(G)``, rows as sets."""
    adjacency, ids = line_graph(network)
    fast = build_line_graph_fast(network)
    assert list(fast.order) == list(adjacency), name
    assert unique_ids(fast) == ids, name
    assert fast.max_degree == max(map(len, adjacency.values()), default=0), name
    assert fast.ascending_rows().neighbor_ids == tuple(map(tuple, adjacency.values())), name


def hypergraph_line_rows(hypergraph: Hypergraph) -> List[List[int]]:
    """``L(H)`` pair by pair: row ``i`` lists, ascending, the hyperedges ``j != i``
    that share a vertex with hyperedge ``i``."""
    hyperedges = hypergraph.edges
    rows: List[List[int]] = [[] for _ in hyperedges]
    for i, j in itertools.combinations(range(len(hyperedges)), 2):
        if hyperedges[i] & hyperedges[j]:
            rows[i].append(j)
            rows[j].append(i)
    return rows


def assert_hypergraph_line_graph_matches(hypergraph: Hypergraph, line: FastNetwork) -> None:
    """``line`` holds the pairwise ``L(H)`` array for array: range ids, uids ``1..|E|``."""
    rows = hypergraph_line_rows(hypergraph)
    assert line.indptr.tolist() == [0, *itertools.accumulate(map(len, rows))]
    assert line.indices.tolist() == [j for row in rows for j in row]
    assert line.unique_ids.tolist() == list(range(1, len(rows) + 1))
    assert list(line.order) == list(range(len(rows)))


def filtered_by_edge(g: FastNetwork, keep: Callable[[Hashable, Hashable], bool]) -> FastNetwork:
    """The spanning subgraph keeping the edges where ``keep(u, v)`` holds."""
    kept = {u: [v for v in vs if keep(u, v)] for u, vs in adjacency(g).items()}
    return FastNetwork.from_adjacency(kept, unique_ids=unique_ids(g))


def induced_subgraph(g: FastNetwork, nodes: Iterable[Hashable]) -> FastNetwork:
    """The subgraph induced by ``nodes`` (unique ids inherited)."""
    keep = set(nodes)
    kept = {u: [v for v in vs if v in keep] for u, vs in adjacency(g).items() if u in keep}
    return FastNetwork.from_adjacency(kept, unique_ids=unique_ids(g))


# --------------------------------------------------------------------------- #
# Node-by-node coloring scans
# --------------------------------------------------------------------------- #


def vertex_violation(g: FastNetwork, colors: Mapping[Hashable, int]) -> Optional[Edge]:
    """The first canonical edge whose endpoints share a color."""
    missing = [node for node in adjacency(g) if node not in colors]
    if missing:
        raise ColoringError(f"coloring misses {len(missing)} vertices (e.g. {missing[0]!r})")
    for u, v in edges(g):
        if colors[u] == colors[v]:
            return (u, v)
    return None


def assert_legal_vertex(
    g: FastNetwork, colors: Mapping[Hashable, int], context: str = "vertex coloring"
) -> None:
    violation = vertex_violation(g, colors)
    if violation is not None:
        u, v = violation
        raise ColoringError(
            f"{context}: adjacent vertices {u!r} and {v!r} share color {colors[u]}"
        )


def vertex_defect(g: FastNetwork, colors: Mapping[Hashable, int]) -> int:
    return max(
        (
            sum(1 for neighbor in neighbors if colors[neighbor] == colors[node])
            for node, neighbors in adjacency(g).items()
        ),
        default=0,
    )


def _normalized(g: FastNetwork, edge_colors: Mapping[Edge, int]) -> Dict[frozenset, int]:
    normalized = {frozenset(edge): color for edge, color in edge_colors.items()}
    missing = [edge for edge in edges(g) if frozenset(edge) not in normalized]
    if missing:
        raise ColoringError(f"edge coloring misses {len(missing)} edges (e.g. {missing[0]!r})")
    return normalized


def edge_violation(
    g: FastNetwork, edge_colors: Mapping[Edge, int]
) -> Optional[Tuple[Edge, Edge, int]]:
    """The first repeat of a color among a node's edges, nodes and neighbors by id."""
    normalized = _normalized(g, edge_colors)
    for node, neighbors in adjacency(g).items():
        seen: Dict[int, Hashable] = {}
        for neighbor in neighbors:
            color = normalized[frozenset((node, neighbor))]
            if color in seen:
                return ((node, seen[color]), (node, neighbor), color)
            seen[color] = neighbor
    return None


def assert_legal_edge(
    g: FastNetwork, edge_colors: Mapping[Edge, int], context: str = "edge coloring"
) -> None:
    violation = edge_violation(g, edge_colors)
    if violation is not None:
        e1, e2, color = violation
        raise ColoringError(f"{context}: incident edges {e1!r} and {e2!r} share color {color}")


def edge_defect(g: FastNetwork, edge_colors: Mapping[Edge, int]) -> int:
    normalized = _normalized(g, edge_colors)
    neighbors = adjacency(g)
    worst = 0
    for u, v in edges(g):
        own = normalized[frozenset((u, v))]
        same = sum(
            1
            for endpoint, other in ((u, v), (v, u))
            for neighbor in neighbors[endpoint]
            if neighbor != other and normalized[frozenset((endpoint, neighbor))] == own
        )
        worst = max(worst, same)
    return worst


def hyperedge_violation(
    hypergraph: Hypergraph, colors: Mapping[int, int]
) -> Optional[Tuple[int, int, Hashable]]:
    """The first two hyperedges sharing a vertex and a color, and that vertex.

    ``colors`` maps hyperedge indices to colors; the scan reads the
    incidence only, never ``L(H)``.
    """
    holder: Dict[Tuple[Hashable, int], int] = {}
    for index, hyperedge in enumerate(hypergraph.edges):
        for vertex in hyperedge:
            first = holder.setdefault((vertex, colors[index]), index)
            if first != index:
                return first, index, vertex
    return None
