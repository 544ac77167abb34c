"""``r``-hypergraphs and their line graphs.

An ``r``-hypergraph is a hypergraph in which every hyperedge contains at most
``r`` vertices.  The paper observes (Section 1.2, Section 5) that the line
graph ``L(H)`` of an ``r``-hypergraph has neighborhood independence at most
``r``, so its vertex-coloring algorithms for bounded-neighborhood-independence
graphs apply directly -- this is the route to hypergraph edge coloring, one of
the paper's motivating applications (resource allocation where a job needs up
to ``r`` resources at once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

import numpy as np

from repro.exceptions import HypergraphError
from repro.local_model.fast_network import FastNetwork


@dataclass
class Hypergraph:
    """A hypergraph with an optional bound ``r`` on the hyperedge size.

    Attributes
    ----------
    rank:
        The bound ``r`` on hyperedge cardinality (``None`` means unbounded).
    """

    rank: int | None = None
    _vertices: set = field(default_factory=set)
    _edges: List[FrozenSet[Hashable]] = field(default_factory=list)

    def add_vertex(self, vertex: Hashable) -> None:
        """Add an isolated vertex (no-op if already present)."""
        self._vertices.add(vertex)

    def add_edge(self, vertices: Iterable[Hashable]) -> int:
        """Add a hyperedge; returns its index.

        Raises
        ------
        HypergraphError
            If the edge is empty, or exceeds the rank bound ``r``.
        """
        edge = frozenset(vertices)
        if not edge:
            raise HypergraphError("a hyperedge must contain at least one vertex")
        if self.rank is not None and len(edge) > self.rank:
            raise HypergraphError(
                f"hyperedge of size {len(edge)} exceeds the rank bound r={self.rank}"
            )
        self._vertices.update(edge)
        self._edges.append(edge)
        return len(self._edges) - 1

    @property
    def vertices(self) -> Tuple[Hashable, ...]:
        """All vertices, in deterministic order."""
        return tuple(sorted(self._vertices, key=repr))

    @property
    def edges(self) -> Tuple[FrozenSet[Hashable], ...]:
        """All hyperedges, in insertion order."""
        return tuple(self._edges)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """Number of hyperedges."""
        return len(self._edges)

    def max_edge_size(self) -> int:
        """The largest hyperedge cardinality (0 if there are no edges)."""
        return max((len(edge) for edge in self._edges), default=0)

    def vertex_degree(self, vertex: Hashable) -> int:
        """Number of hyperedges containing ``vertex``."""
        return sum(1 for edge in self._edges if vertex in edge)

    def max_vertex_degree(self) -> int:
        """The maximum vertex degree (0 for an empty hypergraph)."""
        _, vertex = self._incidence()
        return int(np.bincount(vertex).max()) if len(vertex) else 0

    def _incidence(self) -> Tuple[np.ndarray, np.ndarray]:
        """The membership columns ``(hyperedge, vertex)``, one entry per membership.

        Hyperedge indices are ascending; vertices are interned to dense
        indices ``0..|V|-1``.
        """
        index: Dict[Hashable, int] = {v: i for i, v in enumerate(self._vertices)}
        members = [v for edge in self._edges for v in edge]
        vertex = np.fromiter(map(index.__getitem__, members), dtype=np.int64, count=len(members))
        sizes = np.fromiter(map(len, self._edges), dtype=np.int64, count=len(self._edges))
        return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes), vertex


def hypergraph_line_graph(hypergraph: Hypergraph) -> FastNetwork:
    """The line graph ``L(H)``: one vertex per hyperedge, adjacency = sharing.

    The resulting network's node identifiers are the hyperedge indices, so the
    ``i``-th hyperedge of ``H`` corresponds to node ``i`` of ``L(H)``.  By the
    paper's observation, ``I(L(H)) <= r`` when ``H`` is an ``r``-hypergraph.

    The hyperedges through one vertex form a clique of ``L(H)``: every
    vertex's clique is emitted as endpoint arrays in one pass, and
    :meth:`FastNetwork.from_edge_array` removes the pairs that two hyperedges
    sharing several vertices contribute more than once.
    """
    edge, vertex = hypergraph._incidence()
    # Memberships grouped by vertex; the stable sort keeps each group's
    # hyperedges ascending.
    by_vertex = np.argsort(vertex, kind="stable")
    edge = edge[by_vertex]
    group_end = np.cumsum(np.bincount(vertex))[vertex[by_vertex]]
    # Membership k pairs with every later membership of its group.
    later = group_end - np.arange(len(edge)) - 1
    first = np.repeat(np.arange(len(edge)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return FastNetwork.from_edge_array(edge[first], edge[second], num_nodes=hypergraph.num_edges)


def random_r_hypergraph(
    num_vertices: int,
    num_edges: int,
    rank: int,
    seed: int = 0,
    exact_size: bool = False,
) -> Hypergraph:
    """A random ``r``-hypergraph on ``num_vertices`` vertices.

    Each of the ``num_edges`` draws picks its size uniformly from
    ``{2, ..., rank}`` (or exactly ``rank`` when ``exact_size``) and its
    vertices uniformly without replacement; a draw repeating an earlier
    hyperedge is skipped, so the first one drawn wins.  Deterministic given
    ``seed`` (``numpy.random.default_rng(seed)``).
    """
    if rank < 2:
        raise HypergraphError("rank must be at least 2")
    if num_vertices < rank:
        raise HypergraphError("need at least `rank` vertices")
    rng = np.random.default_rng(seed)
    if exact_size:
        sizes = np.full(num_edges, rank, dtype=np.int64)
    else:
        sizes = rng.integers(2, rank + 1, size=num_edges)
    # Column k draws from the num_vertices - k vertices its row has not taken:
    # stepping past each taken vertex, ascending, maps the draw onto them.
    picks = np.empty((num_edges, rank), dtype=np.int64)
    for k in range(rank):
        draw = rng.integers(0, num_vertices - k, size=num_edges)
        for taken in np.sort(picks[:, :k], axis=1).T:
            draw += draw >= taken
        picks[:, k] = draw
    drawn = dict.fromkeys(
        frozenset(row[:size]) for row, size in zip(picks.tolist(), sizes.tolist())
    )
    return Hypergraph(rank=rank, _vertices=set(range(num_vertices)), _edges=list(drawn))
