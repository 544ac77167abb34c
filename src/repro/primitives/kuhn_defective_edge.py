"""Kuhn's ``O(1)``-round defective *edge* coloring (Corollary 5.4).

For a parameter ``p'``, every vertex ``v`` labels its incident edges with
labels from ``{1, ..., p'}`` so that no label is used more than
``ceil(Delta / p')`` times; the color of an edge ``e = (u, w)`` is the ordered
pair of the two labels its endpoints assigned to it (ordered by the
identifiers of ``u`` and ``w``).  The palette has ``p'^2`` colors and the
defect is at most ``4 * ceil(Delta / p')`` (at each endpoint, at most
``ceil(Delta / p')`` incident edges can repeat either coordinate of the pair).

In this repository the routine runs on the line-graph network: each
line-graph node *is* an edge ``(u, w)`` of ``G`` and can compute both of its
labels locally once it knows its incident edges (its line-graph neighbors
sharing the endpoint), because every vertex's labeling rule is the
deterministic "sort the incident edges and chunk" rule.  The sort order is
unique-id order: the unique ids of ``L(G)`` are Lemma 5.2's pair
identifiers.  The phase spends one round in which every edge announces its
unique id to its neighbors, the ``O(1)`` cost the paper charges.

Corollary 5.4 ranks an edge among its incident edges *inside its own
subgraph*.  The network the phase runs on is that subgraph: Legal-Color hands
each level the view filtered by the recursion paths, so every neighbor the
phase sees is in the same subgraph and every one is counted.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import BroadcastPhase, LocalView
from repro.local_model.line_csr import NOT_A_LINE_GRAPH, line_meta_for
from repro.local_model.vectorized import VectorContext
from repro.primitives.numbers import ceil_div


class KuhnDefectiveEdgeColoringPhase(BroadcastPhase):
    """Corollary 5.4 as a one-round phase on a line-graph network.

    Parameters
    ----------
    p_prime:
        The label range ``p'`` (the resulting palette is ``p'^2``).
    degree_bound:
        An upper bound on the maximum degree of the *original* graph ``G``
        restricted to the participating edges.
    output_key:
        State key the edge color is written to (an integer in
        ``{1, ..., p'^2}``).

    Every line-graph neighbor counts towards the label ranks; to rank within
    subgraphs, run the phase on the view filtered by the subgraph labels
    (``FastNetwork.filtered_by_labels``), as Legal-Color does at every level.
    """

    def __init__(
        self,
        p_prime: int,
        degree_bound: int,
        output_key: str = "defective_edge_color",
    ) -> None:
        if p_prime < 1:
            raise InvalidParameterError("p_prime must be at least 1")
        if degree_bound < 1:
            raise InvalidParameterError("degree_bound must be at least 1")
        self.name = f"kuhn-defective-edge[p'={p_prime}]"
        self.p_prime = p_prime
        self.degree_bound = degree_bound
        self.output_key = output_key
        self.output_palette = p_prime * p_prime
        self.defect_bound = 4 * ceil_div(degree_bound, p_prime)
        self._chunk = max(1, ceil_div(degree_bound, p_prime))

    # ------------------------------------------------------------------ #

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        node_id = view.node_id
        if not (isinstance(node_id, tuple) and len(node_id) == 2):
            raise InvalidParameterError(NOT_A_LINE_GRAPH)

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        return {"uid": view.unique_id}

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        endpoint_a, endpoint_b = view.node_id
        label_a = self._label_at_endpoint(endpoint_a, view.unique_id, inbox)
        label_b = self._label_at_endpoint(endpoint_b, view.unique_id, inbox)
        state[self.output_key] = (label_a - 1) * self.p_prime + label_b
        return True

    def max_rounds(self, n: int, max_degree: int) -> int:
        return 2

    # ------------------------------------------------------------------ #

    def _label_at_endpoint(
        self, endpoint: Hashable, own_uid: int, inbox: Mapping[Hashable, Any]
    ) -> int:
        """The label the vertex ``endpoint`` assigns to the edge with ``own_uid``.

        The edge's rank is the number of senders that share ``endpoint`` and
        have a smaller unique id.  Every edge incident to ``endpoint`` ranks
        by the same unique ids, so all of them agree on the labeling without
        any extra communication.
        """
        rank = sum(
            1
            for neighbor, message in inbox.items()
            if endpoint in neighbor and message["uid"] < own_uid
        )
        label = rank // self._chunk + 1
        return min(label, self.p_prime)

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        An edge's label at an endpoint is its rank by unique id among its
        incident edges -- that is, the number of CSR neighbors that share the
        endpoint and have a smaller dense index, since dense order is
        unique-id order; one ``ctx.kernels.edge_rank`` call counts them over
        the (possibly CSR-masked) line-graph adjacency.
        """
        fast = ctx.fast
        meta = line_meta_for(fast)
        n = fast.num_nodes
        rank_u = np.empty(n, dtype=np.int64)
        rank_v = np.empty(n, dtype=np.int64)
        ctx.kernels.edge_rank(
            fast.indptr,
            fast.indices,
            np.ascontiguousarray(meta.edge_u, dtype=np.int64),
            np.ascontiguousarray(meta.edge_v, dtype=np.int64),
            rank_u,
            rank_v,
        )
        label_u = np.minimum(rank_u // self._chunk + 1, self.p_prime)
        label_v = np.minimum(rank_v // self._chunk + 1, self.p_prime)

        # One round: every node broadcasts {"uid": unique id} and halts.
        ctx.charge_uniform_broadcast(1, payload_words=2)
        ctx.write_column(self.output_key, (label_u - 1) * self.p_prime + label_v)
