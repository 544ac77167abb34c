"""CSR line-graph construction and the dense incidence encoding.

The paper's entire edge-coloring route (Section 5) runs vertex-coloring
algorithms on the line graph ``L(G)``.  :func:`build_line_graph_fast`
derives ``L(G)`` directly from the CSR arrays of ``G``'s
:class:`~repro.local_model.fast_network.FastNetwork` view, with no Python
per-edge work and no sort, in two steps of the kernel layer
(:mod:`repro.local_model.kernels`, called on ``kernels.provider()``):

* the twin scan ``entry_twins``: the canonical edges of ``G`` (ordered by
  endpoint unique id, Lemma 5.2's pair-identifier scheme) are exactly the
  CSR entries with ``row < column`` -- dense node order *is* unique-id
  order -- and their CSR enumeration order is the lexicographic pair-key
  order, so the line-graph unique ids ``1..|E|`` count off along them.  The
  scan gives every entry its edge index and every edge its two slots
  ``u -> v`` and ``v -> u``;
* the incidence gather ``line_gather``: Lemma 5.2 simulates
  ``e = (u, v)`` at its endpoints, so row ``e`` is ``inc(u) \\ {e}`` then
  ``inc(v) \\ {e}``.  Rows are in incidence order, not ascending, and the
  view records so: :meth:`FastNetwork.ascending_rows` sorts a sibling for
  the consumers that read ascending rows, and every coloring run is
  row-order free (``tests/test_line_graph_row_order.py``);
* the edge-tuple node identifiers are *not* materialized: the returned
  :class:`FastNetwork` carries a provider that interns them on first use at
  the API boundary (result extraction, reference-engine runs).

The builder also attaches a :class:`LineGraphMeta` -- the int64 ``edge_u``
/ ``edge_v`` endpoint columns, which the vectorized
:class:`~repro.primitives.kuhn_defective_edge.KuhnDefectiveEdgeColoringPhase`
kernel compares to find the incident edges that share an endpoint (it
ranks them by dense index, which is unique-id order).  CSR-masked sub-views
(the per-level subgraphs of Procedure Legal-Color) inherit the encoding, so
the whole edge-mode recursion stays on the array path.  A hand-built line graph (edge-2-tuple
identifiers, :meth:`FastNetwork.from_adjacency`) gets the encoding derived
on demand by :func:`line_meta_for`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model import kernels
from repro.local_model.fast_network import FastNetwork, fast_view

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
    """

    __slots__ = ("edge_u", "edge_v")

    def __init__(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        self.edge_u = edge_u
        self.edge_v = edge_v

    @property
    def num_edges(self) -> int:
        """Number of line-graph nodes (= edges of the source graph)."""
        return len(self.edge_u)


def _twins(g: FastNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """``(eid, own)`` of the ascending-row view ``g`` (the ``entry_twins`` step)."""
    eid = np.empty(len(g.indices), dtype=np.int64)
    own = np.empty(len(g.indices), dtype=np.int64)
    kernels.provider().entry_twins(g.indptr, g.indices, eid, own)
    return eid, own


def entry_edge_ids(g: FastNetwork) -> np.ndarray:
    """Canonical-edge index of every directed CSR entry of ``g`` (rows ascending).

    Forward entries (``row < col``) count off ``0..m-1`` in pair-key order;
    each backward entry carries its twin's index.
    """
    return _twins(g)[0]


def build_line_graph_fast(network) -> FastNetwork:
    """Derive ``L(G)`` as a :class:`FastNetwork` straight from ``G``'s CSR.

    ``network`` is a :class:`FastNetwork` with rows in any order (a
    CSR-masked view, or an ``L(G)`` view itself).  Row ``e = (u, v)`` of the result lists
    ``inc(u) \\ {e}`` then ``inc(v) \\ {e}``, each in ``G``'s neighbor
    order -- incidence order, not ascending.  The result carries a
    :class:`LineGraphMeta` (``line_meta`` attribute) and defers its
    edge-tuple node identifiers behind a lazy provider; its unique ids are
    ``1..|E|`` in lexicographic pair-key order (Lemma 5.2).
    """
    g = fast_view(network).ascending_rows()

    # Canonical edges: dense order is unique-id order, so the CSR entries
    # with row < col enumerate the pairs (Id(u), Id(v)), u < v, already in
    # lexicographic pair-key order.  Line-graph unique ids are 1..m along it.
    # own[2e] is the slot of u -> v and own[2e + 1] that of its twin v -> u,
    # so the twin's column is u and the entry's own column is v.
    eid, own = _twins(g)
    chunk_rows = g.indices[own.reshape(-1, 2)[:, ::-1].ravel()]  # chunk 2e: u; 2e + 1: v
    edge_u, edge_v = chunk_rows[0::2].copy(), chunk_rows[1::2].copy()
    m = len(edge_u)
    # The incidence gather (Lemma 5.2 simulates e = (u, v) at its endpoints):
    # row e reads G's row u around e's own entry u -> v, then row v around
    # the twin v -> u.  Two edges of a simple graph share at most one
    # endpoint, so no neighbour repeats.
    line_degrees = g.degrees[edge_u] + g.degrees[edge_v] - 2
    line_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(line_degrees, out=line_indptr[1:])
    line_indices = np.empty(line_indptr[-1], dtype=np.int64)
    kernels.provider().line_gather(g.indptr, chunk_rows, own, eid, line_indptr, line_indices)

    line = FastNetwork()
    line._order = None
    line._index_of = None
    line.num_nodes = m
    line.unique_ids = np.arange(1, m + 1, dtype=np.int64)
    line.indices = line_indices
    line.indptr = line_indptr
    line.degrees = line_degrees
    line.max_degree = int(line_degrees.max()) if m else 0
    line._rows_ascending = False  # incidence order
    line._neighbor_ids = None
    line.line_meta = LineGraphMeta(edge_u=edge_u, edge_v=edge_v)

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

    This is the path for line graphs built by hand
    (:meth:`FastNetwork.from_adjacency` over edge-tuple identifiers):
    endpoints are interned into dense codes.  The result is cached on the
    view, so repeated kernel executions on the same network pay it once.
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
    return LineGraphMeta(edge_u=edge_u, edge_v=edge_v)


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
