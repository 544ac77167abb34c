"""CSR line-graph construction and the dense incidence encoding.

The paper's entire edge-coloring route (Section 5) runs vertex-coloring
algorithms on the line graph ``L(G)``.  The legacy constructor
(:func:`repro.graphs.line_graph.build_line_graph_network`) builds ``L(G)`` as
a :class:`~repro.local_model.network.Network` with pure-Python dict-of-set
bookkeeping -- ``O(sum_v deg(v)^2)`` Python-level work plus a full
:class:`Network` re-sort -- which dominated the wall clock of ``color_edges``
long before a single round was simulated.

:func:`build_line_graph_fast` derives ``L(G)`` directly from the CSR arrays
of ``G``'s :class:`~repro.local_model.fast_network.FastNetwork` view:

* the canonical edges of ``G`` (ordered by endpoint unique id, Lemma 5.2's
  pair-identifier scheme) are exactly the CSR entries with
  ``row < column`` -- dense node order *is* unique-id order -- and their CSR
  enumeration order is the lexicographic pair-key order, so the line-graph
  unique ids ``1..|E|`` fall out of one boolean mask;
* the adjacency of ``L(G)`` (edges sharing an endpoint) is the per-vertex
  clique over ``G``'s incidence lists, expanded with ``repeat``/modular
  arithmetic and finished with one in-place sort of a combined
  ``src * |E| + dst`` key -- no Python per-edge work;
* the edge-tuple node identifiers are *not* materialized: the returned
  :class:`FastNetwork` carries a provider that interns them on first use at
  the API boundary (result extraction, reference-engine audits), exactly
  like the interned path-id column of the state table.

The builder also attaches a :class:`LineGraphMeta` -- int64 ``edge_u`` /
``edge_v`` endpoint columns and a ``sort_rank`` column encoding the
deterministic incident-edge order of Corollary 5.4 (the columns the
vectorized
:class:`~repro.primitives.kuhn_defective_edge.KuhnDefectiveEdgeColoringPhase`
kernel ranks against), plus a per-vertex CSR of incident edge indices for
line-graph-aware consumers.  CSR-masked sub-views (the per-level subgraphs
of Procedure Legal-Color) inherit the encoding, so the whole edge-mode
recursion stays on the array path.

``FastNetwork.to_network()`` on the returned view materializes the *exact*
legacy ``Network`` (same node identifiers, same unique ids, same adjacency
and orderings), which keeps the reference engine and every existing caller
auditable against the Python constructor (property-tested in
``tests/test_graphs_line_graph.py``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs, fast_view
from repro.local_model.fast_network import _KEY_LIMIT

#: Raised whenever a line-graph operation meets non-edge-tuple identifiers
#: (kept identical to the scalar phase's ``initialize`` message).
NOT_A_LINE_GRAPH = (
    "Kuhn's defective edge coloring must run on a line-graph network "
    "whose node identifiers are edge 2-tuples"
)


class LineGraphMeta:
    """Dense incidence encoding of a line-graph :class:`FastNetwork`.

    Attributes
    ----------
    edge_u, edge_v:
        ``int64`` endpoint codes of each line-graph node (= edge of ``G``),
        in the canonical order (``edge_u`` is the endpoint with the smaller
        unique id).  Codes are dense node indices of ``G`` when built by
        :func:`build_line_graph_fast`, or interned endpoint codes when
        derived from an existing line-graph network; either way, code
        equality is identifier equality, which is all the kernels compare.
    sort_rank:
        ``int64`` key per line-graph node, strictly increasing in the
        :func:`~repro.local_model.network.node_sort_key` order of the edge
        tuples -- the deterministic order in which Corollary 5.4's
        "sort the incident edges and chunk" rule ranks them.
    vert_indptr, vert_edges:
        Per-endpoint CSR of incident edge indices: the edges incident to
        endpoint code ``w`` are ``vert_edges[vert_indptr[w]:vert_indptr[w+1]]``,
        ascending.  Not consumed by the Corollary 5.4 kernel (which ranks
        through ``edge_u``/``edge_v``/``sort_rank`` over the line-graph CSR);
        exposed for line-graph-aware consumers and pinned by the builder
        tests.
    source:
        The ``FastNetwork`` view of ``G`` the encoding was derived from
        (``None`` when reconstructed from an existing line-graph network).
    """

    __slots__ = ("edge_u", "edge_v", "sort_rank", "vert_indptr", "vert_edges", "source")

    def __init__(
        self,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        sort_rank: np.ndarray,
        vert_indptr: np.ndarray,
        vert_edges: np.ndarray,
        source: Optional[FastNetwork] = None,
    ) -> None:
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.sort_rank = sort_rank
        self.vert_indptr = vert_indptr
        self.vert_edges = vert_edges
        self.source = source

    @property
    def num_edges(self) -> int:
        """Number of line-graph nodes (= edges of the source graph)."""
        return len(self.edge_u)


def _node_sort_ranks(identifiers: Tuple) -> np.ndarray:
    """``rank[i]`` = position of ``identifiers[i]`` in node_sort_key order."""
    from repro.local_model.network import node_sort_key

    n = len(identifiers)
    ranks = np.empty(n, dtype=np.int64)
    by_key = sorted(range(n), key=lambda i: node_sort_key(identifiers[i]))
    ranks[np.asarray(by_key, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return ranks


def build_line_graph_fast(network) -> FastNetwork:
    """Derive ``L(G)`` as a :class:`FastNetwork` straight from ``G``'s CSR.

    ``network`` may be a :class:`~repro.local_model.network.Network` or a
    (possibly CSR-masked) :class:`FastNetwork`.  The result carries a
    :class:`LineGraphMeta` (``line_meta`` attribute) and defers its
    edge-tuple node identifiers behind a lazy provider; its unique ids are
    ``1..|E|`` in lexicographic pair-key order, matching the legacy
    constructor bit for bit (``to_network()`` materializes the identical
    :class:`Network`).
    """
    g = fast_view(network)
    n = g.num_nodes
    rows, cols = g.rows_np, g.indices_np

    # Canonical edges: dense order is unique-id order, so the CSR entries
    # with row < col enumerate the pairs (Id(u), Id(v)), u < v, already in
    # lexicographic pair-key order.  Line-graph unique ids are 1..m along it.
    forward = rows < cols
    edge_u = rows[forward]
    edge_v = cols[forward]
    m = len(edge_u)

    # Edge index of every directed CSR entry of G (the per-vertex incidence
    # CSR): forward entries count off 0..m-1; each backward entry finds its
    # canonical twin by pair-key binary search.
    eid = np.empty(len(rows), dtype=np.int64)
    eid[forward] = np.arange(m, dtype=np.int64)
    backward = ~forward
    if m:
        keys = edge_u * n + edge_v  # sorted ascending by construction
        eid[backward] = np.searchsorted(keys, cols[backward] * n + rows[backward])

    # Clique expansion: edges e != f are adjacent in L(G) iff they share an
    # endpoint, and a simple graph's edges share at most one, so emitting
    # every ordered pair within every vertex's incidence list enumerates each
    # directed line-graph edge exactly once.
    degrees = g.degrees_np
    pair_counts = degrees * degrees
    total = int(pair_counts.sum())
    src = np.repeat(eid, np.repeat(degrees, degrees))
    block_offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(pair_counts[:-1], out=block_offsets[1:])
    position = np.arange(total, dtype=np.int64) - np.repeat(block_offsets, pair_counts)
    width = np.repeat(degrees, pair_counts)
    starts = np.repeat(g.indptr_np[:-1], pair_counts)
    dst = eid[starts + position % width]  # width >= 1 on every emitted entry
    del position, width, starts
    keep = src != dst
    src, dst = src[keep], dst[keep]
    del keep
    if m * m < _KEY_LIMIT:  # one int64 key, sorted and decoded in place
        line_indices = src * m + dst
        line_indices.sort()
        line_indices %= m
    else:
        line_indices = dst[_lexsort_pairs(src, dst)]
    del src, dst
    # Edge (u, v) of a simple graph meets deg(u) + deg(v) - 2 others.
    line_degrees = degrees[edge_u] + degrees[edge_v] - 2
    line_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(line_degrees, out=line_indptr[1:])

    # The Corollary 5.4 ranking key: node_sort_key order over the edge
    # tuples is lexicographic over the endpoints' node_sort_key ranks.
    node_ranks = _node_sort_ranks(g.order)
    sort_rank = node_ranks[edge_u] * (n + 1) + node_ranks[edge_v]

    line = FastNetwork(None)
    line.network = None
    line._order = None
    line._index_of = None
    line.num_nodes = m
    line.unique_ids = np.arange(1, m + 1, dtype=np.int64)
    line.indices = line_indices
    line.indptr = line_indptr
    line.degrees = line_degrees
    line.max_degree = int(line_degrees.max()) if m else 0
    line._neighbor_ids = None
    line.line_meta = LineGraphMeta(
        edge_u=edge_u,
        edge_v=edge_v,
        sort_rank=sort_rank,
        vert_indptr=g.indptr_np,
        vert_edges=eid,
        source=g,
    )

    def edge_tuples() -> Iterator[Tuple]:
        g_order = g.order
        return (
            (g_order[u], g_order[v])
            for u, v in zip(edge_u.tolist(), edge_v.tolist())
        )

    line._order_provider = edge_tuples
    return line


def _derive_line_meta(fast: FastNetwork) -> LineGraphMeta:
    """Reconstruct the incidence encoding from edge-tuple node identifiers.

    This is the compatibility path for line graphs built the legacy way
    (:func:`repro.graphs.line_graph.build_line_graph_network` or by hand):
    endpoints are interned into dense codes and the ranking key is computed
    by one Python sort.  The result is cached on the view, so repeated
    kernel executions on the same network pay it once.
    """
    order = fast.order
    m = fast.num_nodes
    edge_u = np.empty(m, dtype=np.int64)
    edge_v = np.empty(m, dtype=np.int64)
    codes: dict = {}
    for k, node in enumerate(order):
        if not (isinstance(node, tuple) and len(node) == 2):
            raise InvalidParameterError(NOT_A_LINE_GRAPH)
        a, b = node
        edge_u[k] = codes.setdefault(a, len(codes))
        edge_v[k] = codes.setdefault(b, len(codes))

    sort_rank = _node_sort_ranks(order)

    empty = np.zeros(0, dtype=np.int64)
    endpoints = np.concatenate([edge_u, edge_v]) if m else empty
    incident = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else empty
    by_endpoint = _lexsort_pairs(endpoints, incident)
    vert_edges = incident[by_endpoint]
    vert_counts = np.bincount(endpoints, minlength=len(codes))
    vert_indptr = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(vert_counts, out=vert_indptr[1:])
    return LineGraphMeta(
        edge_u=edge_u,
        edge_v=edge_v,
        sort_rank=sort_rank,
        vert_indptr=vert_indptr,
        vert_edges=vert_edges,
        source=None,
    )


def line_meta_for(fast: FastNetwork) -> LineGraphMeta:
    """The :class:`LineGraphMeta` of ``fast`` (derived and cached on demand).

    Views produced by :func:`build_line_graph_fast` (and CSR-masked views
    derived from them) already carry the encoding; any other view must have
    edge-2-tuple node identifiers, or
    :class:`~repro.exceptions.InvalidParameterError` is raised -- the same
    failure the scalar phase reports on a non-line-graph network.
    """
    if fast.line_meta is None:
        fast.line_meta = _derive_line_meta(fast)
    return fast.line_meta
