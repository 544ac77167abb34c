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

import itertools
import random
from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, List, Tuple

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
        return max((self.vertex_degree(v) for v in self._vertices), default=0)


def hypergraph_line_graph(hypergraph: Hypergraph) -> FastNetwork:
    """The line graph ``L(H)``: one vertex per hyperedge, adjacency = sharing.

    The resulting network's node identifiers are the hyperedge indices, so the
    ``i``-th hyperedge of ``H`` corresponds to node ``i`` of ``L(H)``.  By the
    paper's observation, ``I(L(H)) <= r`` when ``H`` is an ``r``-hypergraph.
    """
    edges = hypergraph.edges
    pairs = [
        (i, j) for i, j in itertools.combinations(range(len(edges)), 2) if edges[i] & edges[j]
    ]
    u, v = (np.array(side, dtype=np.int64) for side in zip(*pairs)) if pairs else ((), ())
    return FastNetwork.from_edge_array(u, v, num_nodes=len(edges))


def random_r_hypergraph(
    num_vertices: int,
    num_edges: int,
    rank: int,
    seed: int = 0,
    exact_size: bool = False,
) -> Hypergraph:
    """A random ``r``-hypergraph on ``num_vertices`` vertices.

    Each hyperedge picks its size uniformly from ``{2, ..., rank}`` (or
    exactly ``rank`` when ``exact_size``) and its vertices uniformly without
    replacement.  Deterministic given ``seed``.
    """
    if rank < 2:
        raise HypergraphError("rank must be at least 2")
    if num_vertices < rank:
        raise HypergraphError("need at least `rank` vertices")
    rng = random.Random(seed)
    hypergraph = Hypergraph(rank=rank)
    for vertex in range(num_vertices):
        hypergraph.add_vertex(vertex)
    seen = set()
    for _ in range(num_edges):
        size = rank if exact_size else rng.randint(2, rank)
        edge = frozenset(rng.sample(range(num_vertices), size))
        if edge in seen:
            continue
        seen.add(edge)
        hypergraph.add_edge(edge)
    return hypergraph
