"""Coloring legality, defect and palette verification.

These oracles are used throughout the tests and benchmark harnesses to check
the outputs of every distributed run against the definitions in Sections 1
and 3 of the paper:

* a *legal* vertex coloring assigns different colors to adjacent vertices;
* a *legal* edge coloring assigns different colors to incident edges;
* the *defect* of a vertex coloring is the maximum, over all vertices, of the
  number of neighbors sharing the vertex's color (and analogously for edges).

Every oracle takes a :class:`~repro.local_model.fast_network.FastNetwork`
and a coloring in one of two shapes:

* a numpy *color column* -- ``colors[i]`` is the color of dense node ``i``;
  for edge colorings, of the ``i``-th canonical edge in unique-id pair
  order, which is exactly the dense node order of the line graph ``L(G)``;
* a mapping from node (or edge, in either endpoint order) to color, which is
  converted to the column at the boundary (:func:`_vertex_column` /
  :func:`_edge_column`).

Legality and defect then reduce to masked comparisons over the CSR arrays --
no per-node Python -- which is how the benchmark sweeps verify million-edge
colorings at array speed.  A failure names the offender the natural scan
reaches first (nodes in unique-id order, each node's neighbors in unique-id
order); node identifiers are interned lazily, only on the failure path.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ColoringError
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs, fast_view, sorted_distinct
from repro.local_model.line_csr import entry_edge_ids

EdgeKey = Tuple[Hashable, Hashable]
#: A coloring: mapping form, or an ``int`` color column in dense order.
ColorsLike = Union[Mapping[Hashable, int], np.ndarray]


def palette_size(colors: ColorsLike) -> int:
    """Number of distinct colors used by a coloring."""
    if isinstance(colors, np.ndarray):
        return len(sorted_distinct(colors))
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


def is_legal_vertex_coloring(network: FastNetwork, colors: ColorsLike) -> bool:
    """Whether ``colors`` is a legal vertex coloring of ``network``."""
    fast = fast_view(network)
    return _find_vertex_violation(fast, _vertex_column(fast, colors)) is None


def assert_legal_vertex_coloring(
    network: FastNetwork, colors: ColorsLike, context: str = "vertex coloring"
) -> None:
    """Raise :class:`~repro.exceptions.ColoringError` if the coloring is not legal."""
    fast = fast_view(network)
    column = _vertex_column(fast, colors)
    violation = _find_vertex_violation(fast, column)
    if violation is not None:
        u, v = violation
        raise ColoringError(
            f"{context}: adjacent vertices {u!r} and {v!r} share color "
            f"{int(column[fast.index_of[u]])}"
        )


def coloring_defect(network: FastNetwork, colors: ColorsLike) -> int:
    """The defect of a vertex coloring (0 for a legal coloring)."""
    fast = fast_view(network)
    column = _vertex_column(fast, colors)
    if fast.num_nodes == 0 or len(fast.indices) == 0:
        return 0
    hits = _monochromatic_entries(fast, column)
    return int(np.bincount(_entry_rows(fast, hits), minlength=fast.num_nodes).max())


def _monochromatic_entries(fast: FastNetwork, column: np.ndarray) -> np.ndarray:
    """The CSR entries whose two endpoints share a color."""
    return np.flatnonzero(np.repeat(column, fast.degrees) == column[fast.indices])


def _entry_rows(fast: FastNetwork, entries: np.ndarray) -> np.ndarray:
    """The source node of each of ``entries`` (ascending CSR entry indices)."""
    return np.searchsorted(fast.indptr, entries, side="right") - 1


def _find_vertex_violation(
    fast: FastNetwork, column: np.ndarray
) -> Optional[Tuple[Hashable, Hashable]]:
    """First monochromatic edge in canonical order (identifiers interned lazily)."""
    hits = _monochromatic_entries(fast, column)
    if not hits.size:
        return None
    rows, cols = _entry_rows(fast, hits), fast.indices[hits]
    # The forward conflict with the smallest (row, col) is the first canonical
    # edge in pair-key order, whatever order each row lists its neighbors in.
    forward = np.flatnonzero(rows < cols)
    first = forward[np.argmin(rows[forward] * fast.num_nodes + cols[forward])]
    order = fast.order
    return (order[int(rows[first])], order[int(cols[first])])


# --------------------------------------------------------------------------- #
# Edge colorings
# --------------------------------------------------------------------------- #


def _canonical_edge_endpoints(fast: FastNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """Dense endpoint indices of the canonical edges, in unique-id pair order."""
    rows, cols = fast.rows_np, fast.indices
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


def is_legal_edge_coloring(network: FastNetwork, edge_colors: ColorsLike) -> bool:
    """Whether ``edge_colors`` is a legal edge coloring of ``network``."""
    fast = fast_view(network).ascending_rows()
    return _find_edge_violation(fast, _edge_column(fast, edge_colors)) is None


def assert_legal_edge_coloring(
    network: FastNetwork, edge_colors: ColorsLike, context: str = "edge coloring"
) -> None:
    """Raise :class:`~repro.exceptions.ColoringError` if the edge coloring is not legal."""
    fast = fast_view(network).ascending_rows()
    column = _edge_column(fast, edge_colors)
    violation = _find_edge_violation(fast, column)
    if violation is not None:
        e1, e2, color = violation
        raise ColoringError(
            f"{context}: incident edges {e1!r} and {e2!r} share color {color}"
        )


def edge_coloring_defect(network: FastNetwork, edge_colors: ColorsLike) -> int:
    """The defect of an edge coloring (max incident same-colored edges per edge)."""
    fast = fast_view(network).ascending_rows()
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


def _find_edge_violation(
    fast: FastNetwork, column: np.ndarray
) -> Optional[Tuple[EdgeKey, EdgeKey, int]]:
    """The first violation of the node-by-node scan, from the arrays.

    The scan walks nodes in dense order and each node's neighbors in
    ascending order, reporting the first incident edge whose color was
    already seen at that node.  Sorting the CSR entries stably by (row, color) -- ties
    keep entry-index order -- makes every such "repeat" entry adjacent
    to the first occurrence of its (row, color) group; the scan's answer is
    the repeat entry with the smallest global CSR index.
    """
    rows = fast.rows_np
    if not len(rows):
        return None
    entry_colors = column[entry_edge_ids(fast)]
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
    cols = fast.indices
    node = order[int(r_sorted[winner])]
    seen_neighbor = order[int(cols[by_row_color[first]])]
    repeat_neighbor = order[int(cols[by_row_color[winner]])]
    return ((node, seen_neighbor), (node, repeat_neighbor), int(c_sorted[winner]))
