"""Coloring legality, defect and palette verification.

These oracles are used throughout the tests and benchmark harnesses to check
the outputs of every distributed run against the definitions in Sections 1
and 3 of the paper:

* a *legal* vertex coloring assigns different colors to adjacent vertices;
* a *legal* edge coloring assigns different colors to incident edges;
* the *defect* of a vertex coloring is the maximum, over all vertices, of the
  number of neighbors sharing the vertex's color (and analogously for edges).

Every oracle accepts two input shapes:

* the **mapping form** -- a legacy :class:`~repro.local_model.network.Network`
  plus a mapping from node (or canonical edge) to color.  This is the
  transparent audit path; it runs the original pure-Python ``O(E)`` scans
  with their exact error messages.
* the **array form** -- a :class:`~repro.local_model.fast_network.FastNetwork`
  and/or a numpy *color column* (``colors[i]`` is the color of dense node
  ``i``; for edge colorings, of the ``i``-th canonical edge in unique-id
  pair order, which is exactly the dense node order of the line graph
  ``L(G)``).  Legality and defect then reduce to masked comparisons over the
  CSR arrays -- no per-node Python -- which is how the benchmark sweeps
  verify million-edge colorings at array speed.  Error messages are
  bit-identical to the mapping form (node identifiers are interned lazily,
  only on the failure path).

A mapping paired with a ``FastNetwork``, or a column paired with a legacy
``Network``, is converted at the boundary; the verdicts and messages are the
same either way (property-tested in ``tests/test_verification.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ColoringError
from repro.local_model.fast_network import FastNetwork, NetworkLike, _lexsort_pairs, fast_view
from repro.local_model.network import Network

EdgeKey = Tuple[Hashable, Hashable]
#: A coloring: mapping form, or an ``int`` color column in dense order.
ColorsLike = Union[Mapping[Hashable, int], np.ndarray]


def palette_size(colors: ColorsLike) -> int:
    """Number of distinct colors used by a coloring."""
    if isinstance(colors, np.ndarray):
        return int(np.unique(colors).size)
    return len(set(colors.values()))


def max_color(colors: ColorsLike) -> int:
    """The largest color value used (0 for an empty coloring)."""
    if isinstance(colors, np.ndarray):
        return int(colors.max()) if colors.size else 0
    return max(colors.values(), default=0)


def min_color(colors: ColorsLike) -> int:
    """The smallest color value used (1 for an empty coloring)."""
    if isinstance(colors, np.ndarray):
        return int(colors.min()) if colors.size else 1
    return min(colors.values(), default=1)


def _use_arrays(network: NetworkLike, colors: ColorsLike) -> bool:
    """Whether to dispatch to the masked-CSR kernels."""
    return isinstance(network, FastNetwork) or isinstance(colors, np.ndarray)


def _vertex_column(fast: FastNetwork, colors: ColorsLike) -> np.ndarray:
    """``colors`` as an int64 column in dense node order (checked complete)."""
    if isinstance(colors, np.ndarray):
        column = np.ascontiguousarray(colors, dtype=np.int64).ravel()
        if len(column) < fast.num_nodes:
            missing = fast.num_nodes - len(column)
            example = fast.order[len(column)]
            raise ColoringError(
                f"coloring misses {missing} vertices (e.g. {example!r})"
            )
        if len(column) > fast.num_nodes:
            raise ColoringError(
                f"color column has {len(column)} entries for "
                f"{fast.num_nodes} vertices"
            )
        return column
    missing_nodes = [node for node in fast.order if node not in colors]
    if missing_nodes:
        raise ColoringError(
            f"coloring misses {len(missing_nodes)} vertices "
            f"(e.g. {missing_nodes[0]!r})"
        )
    return np.fromiter(
        (colors[node] for node in fast.order), dtype=np.int64, count=fast.num_nodes
    )


# --------------------------------------------------------------------------- #
# Vertex colorings
# --------------------------------------------------------------------------- #


def is_legal_vertex_coloring(network: NetworkLike, colors: ColorsLike) -> bool:
    """Whether ``colors`` is a legal vertex coloring of ``network``."""
    if _use_arrays(network, colors):
        fast = fast_view(network)
        column = _vertex_column(fast, colors)
        rows, cols = fast.rows_np, fast.indices_np
        return not bool((column[rows] == column[cols]).any())
    return _find_vertex_violation(network, colors) is None


def assert_legal_vertex_coloring(
    network: NetworkLike, colors: ColorsLike, context: str = "vertex coloring"
) -> None:
    """Raise :class:`~repro.exceptions.ColoringError` if the coloring is not legal."""
    if _use_arrays(network, colors):
        fast = fast_view(network)
        column = _vertex_column(fast, colors)
        violation = _find_vertex_violation_arrays(fast, column)
        if violation is not None:
            u, v = violation
            raise ColoringError(
                f"{context}: adjacent vertices {u!r} and {v!r} share color "
                f"{int(column[fast.index_of[u]])}"
            )
        return
    violation = _find_vertex_violation(network, colors)
    if violation is not None:
        u, v = violation
        raise ColoringError(
            f"{context}: adjacent vertices {u!r} and {v!r} share color {colors[u]}"
        )


def coloring_defect(network: NetworkLike, colors: ColorsLike) -> int:
    """The defect of a vertex coloring (0 for a legal coloring)."""
    if _use_arrays(network, colors):
        fast = fast_view(network)
        column = _vertex_column(fast, colors)
        if fast.num_nodes == 0 or len(fast.indices) == 0:
            return 0
        rows, cols = fast.rows_np, fast.indices_np
        same = column[rows] == column[cols]
        return int(np.bincount(rows[same], minlength=fast.num_nodes).max())
    worst = 0
    for node in network.nodes():
        same = sum(
            1
            for neighbor in network.neighbors(node)
            if colors[neighbor] == colors[node]
        )
        worst = max(worst, same)
    return worst


def _find_vertex_violation_arrays(
    fast: FastNetwork, column: np.ndarray
) -> Optional[Tuple[Hashable, Hashable]]:
    """First monochromatic edge in canonical order (identifiers interned lazily)."""
    rows, cols = fast.rows_np, fast.indices_np
    conflict = column[rows] == column[cols]
    if not conflict.any():
        return None
    # CSR entries with row < col enumerate the canonical edges in exactly the
    # (unique-id, unique-id) order Network.edges() iterates, so the first
    # forward conflict is the same edge the mapping-based scan reports.
    forward = np.flatnonzero(conflict & (rows < cols))[0]
    order = fast.order
    return (order[int(rows[forward])], order[int(cols[forward])])


def _find_vertex_violation(
    network: Network, colors: Mapping[Hashable, int]
) -> Optional[Tuple[Hashable, Hashable]]:
    missing = [node for node in network.nodes() if node not in colors]
    if missing:
        raise ColoringError(f"coloring misses {len(missing)} vertices (e.g. {missing[0]!r})")
    for u, v in network.edges():
        if colors[u] == colors[v]:
            return (u, v)
    return None


# --------------------------------------------------------------------------- #
# Edge colorings
# --------------------------------------------------------------------------- #


def _canonical_edge_endpoints(fast: FastNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """Dense endpoint indices of the canonical edges, in unique-id pair order."""
    rows, cols = fast.rows_np, fast.indices_np
    forward = rows < cols
    return rows[forward], cols[forward]


def _edge_column(fast: FastNetwork, edge_colors: ColorsLike) -> np.ndarray:
    """``edge_colors`` as an int64 column over the canonical edges."""
    num_edges = fast.num_edges
    if isinstance(edge_colors, np.ndarray):
        column = np.ascontiguousarray(edge_colors, dtype=np.int64).ravel()
        if len(column) < num_edges:
            edge_u, edge_v = _canonical_edge_endpoints(fast)
            order = fast.order
            example = (
                order[int(edge_u[len(column)])],
                order[int(edge_v[len(column)])],
            )
            raise ColoringError(
                f"edge coloring misses {num_edges - len(column)} edges "
                f"(e.g. {example!r})"
            )
        if len(column) > num_edges:
            raise ColoringError(
                f"edge color column has {len(column)} entries for "
                f"{num_edges} edges"
            )
        return column
    normalized: Dict[frozenset, int] = {}
    for (u, v), color in edge_colors.items():
        normalized[frozenset((u, v))] = color
    edge_u, edge_v = _canonical_edge_endpoints(fast)
    order = fast.order
    column = np.empty(num_edges, dtype=np.int64)
    missing: List[EdgeKey] = []
    for i in range(num_edges):
        edge = (order[int(edge_u[i])], order[int(edge_v[i])])
        color = normalized.get(frozenset(edge))
        if color is None:
            missing.append(edge)
        else:
            column[i] = color
    if missing:
        raise ColoringError(
            f"edge coloring misses {len(missing)} edges (e.g. {missing[0]!r})"
        )
    return column


def _entry_edge_ids(fast: FastNetwork) -> np.ndarray:
    """Canonical-edge index of every directed CSR entry."""
    rows, cols = fast.rows_np, fast.indices_np
    n = fast.num_nodes
    forward = rows < cols
    edge_ids = np.empty(len(rows), dtype=np.int64)
    num_edges = int(forward.sum())
    edge_ids[forward] = np.arange(num_edges, dtype=np.int64)
    if num_edges:
        keys = rows[forward] * n + cols[forward]  # ascending by construction
        backward = ~forward
        edge_ids[backward] = np.searchsorted(
            keys, cols[backward] * n + rows[backward]
        )
    return edge_ids


def _normalize_edge_colors(
    network: Network, edge_colors: Mapping[EdgeKey, int]
) -> Dict[frozenset, int]:
    normalized: Dict[frozenset, int] = {}
    for (u, v), color in edge_colors.items():
        normalized[frozenset((u, v))] = color
    missing = [edge for edge in network.edges() if frozenset(edge) not in normalized]
    if missing:
        raise ColoringError(
            f"edge coloring misses {len(missing)} edges (e.g. {missing[0]!r})"
        )
    return normalized


def is_legal_edge_coloring(
    network: NetworkLike, edge_colors: ColorsLike
) -> bool:
    """Whether ``edge_colors`` is a legal edge coloring of ``network``."""
    if _use_arrays(network, edge_colors):
        fast = fast_view(network)
        column = _edge_column(fast, edge_colors)
        edge_u, edge_v = _canonical_edge_endpoints(fast)
        endpoints = np.concatenate([edge_u, edge_v])
        entry_colors = np.concatenate([column, column])
        if not len(endpoints):
            return True
        by_endpoint_color = _lexsort_pairs(endpoints, entry_colors)
        ep = endpoints[by_endpoint_color]
        ec = entry_colors[by_endpoint_color]
        return not bool(((ep[1:] == ep[:-1]) & (ec[1:] == ec[:-1])).any())
    return _find_edge_violation(network, edge_colors) is None


def assert_legal_edge_coloring(
    network: NetworkLike, edge_colors: ColorsLike, context: str = "edge coloring"
) -> None:
    """Raise :class:`~repro.exceptions.ColoringError` if the edge coloring is not legal."""
    if _use_arrays(network, edge_colors):
        fast = fast_view(network)
        column = _edge_column(fast, edge_colors)
        violation = _find_edge_violation_arrays(fast, column)
    else:
        violation = _find_edge_violation(network, edge_colors)
    if violation is not None:
        e1, e2, color = violation
        raise ColoringError(
            f"{context}: incident edges {e1!r} and {e2!r} share color {color}"
        )


def edge_coloring_defect(network: NetworkLike, edge_colors: ColorsLike) -> int:
    """The defect of an edge coloring (max incident same-colored edges per edge)."""
    if _use_arrays(network, edge_colors):
        fast = fast_view(network)
        column = _edge_column(fast, edge_colors)
        num_edges = len(column)
        if num_edges == 0:
            return 0
        edge_u, edge_v = _canonical_edge_endpoints(fast)
        endpoints = np.concatenate([edge_u, edge_v])
        entry_colors = np.concatenate([column, column])
        by_group = _lexsort_pairs(endpoints, entry_colors)
        ep = endpoints[by_group]
        ec = entry_colors[by_group]
        boundary = np.empty(len(ep), dtype=bool)
        boundary[0] = True
        boundary[1:] = (ep[1:] != ep[:-1]) | (ec[1:] != ec[:-1])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, len(ep)))
        group_size = np.empty(len(ep), dtype=np.int64)
        group_size[by_group] = np.repeat(sizes, sizes)
        # Incident same-colored edges of edge e: its color's multiplicity at
        # each endpoint, minus e itself at each.
        defects = (group_size[:num_edges] - 1) + (group_size[num_edges:] - 1)
        return int(defects.max())
    normalized = _normalize_edge_colors(network, edge_colors)
    worst = 0
    for u, v in network.edges():
        own = normalized[frozenset((u, v))]
        same = 0
        for endpoint, other in ((u, v), (v, u)):
            for neighbor in network.neighbors(endpoint):
                if neighbor == other:
                    continue
                if normalized[frozenset((endpoint, neighbor))] == own:
                    same += 1
        worst = max(worst, same)
    return worst


def _find_edge_violation_arrays(
    fast: FastNetwork, column: np.ndarray
) -> Optional[Tuple[EdgeKey, EdgeKey, int]]:
    """The violation the mapping-based scan reports first, from the arrays.

    The mapping scan walks nodes in dense order and each node's neighbors in
    CSR order, reporting the first incident edge whose color was already seen
    at that node.  Sorting the CSR entries stably by (row, color) -- ties
    keep entry-index order -- makes every such "repeat" entry adjacent
    to the first occurrence of its (row, color) group; the scan's answer is
    the repeat entry with the smallest global CSR index.
    """
    rows = fast.rows_np
    if not len(rows):
        return None
    entry_colors = column[_entry_edge_ids(fast)]
    by_row_color = _lexsort_pairs(rows, entry_colors)
    r_sorted = rows[by_row_color]
    c_sorted = entry_colors[by_row_color]
    repeat = (r_sorted[1:] == r_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])
    if not repeat.any():
        return None
    candidates = np.flatnonzero(repeat) + 1  # positions in the sorted arrays
    winner = int(candidates[np.argmin(by_row_color[candidates])])
    first = winner
    while first > 0 and repeat[first - 1]:
        first -= 1
    order = fast.order
    cols = fast.indices_np
    node = order[int(r_sorted[winner])]
    seen_neighbor = order[int(cols[by_row_color[first]])]
    repeat_neighbor = order[int(cols[by_row_color[winner]])]
    return ((node, seen_neighbor), (node, repeat_neighbor), int(c_sorted[winner]))


def _find_edge_violation(
    network: Network, edge_colors: Mapping[EdgeKey, int]
) -> Optional[Tuple[EdgeKey, EdgeKey, int]]:
    normalized = _normalize_edge_colors(network, edge_colors)
    for node in network.nodes():
        seen: Dict[int, Hashable] = {}
        for neighbor in network.neighbors(node):
            color = normalized[frozenset((node, neighbor))]
            if color in seen:
                return ((node, seen[color]), (node, neighbor), color)
            seen[color] = neighbor
    return None
