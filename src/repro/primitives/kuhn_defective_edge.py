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
labels locally once it knows which of its incident edges participate (its
line-graph neighbors sharing the endpoint), because every vertex's labeling
rule is the deterministic "sort the incident edges and chunk" rule.  The only
communication needed is one round to learn which neighbors are *active*
(belong to the same subgraph of the Legal-Color recursion); when no class
restriction is supplied the phase still spends that one round, matching the
``O(1)`` cost the paper charges.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import BroadcastPhase, LocalView
from repro.local_model.line_csr import NOT_A_LINE_GRAPH, line_meta_for
from repro.local_model.messages import payload_size_words
from repro.local_model.fast_network import node_sort_key
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
    class_key:
        Optional state key identifying the subgraph (recursion path) the edge
        currently belongs to.  Only incident edges with an equal class value
        are counted when computing label ranks, which is how the routine is
        reused at every level of the Legal-Color recursion.
    """

    def __init__(
        self,
        p_prime: int,
        degree_bound: int,
        output_key: str = "defective_edge_color",
        class_key: Optional[str] = None,
    ) -> None:
        if p_prime < 1:
            raise InvalidParameterError("p_prime must be at least 1")
        if degree_bound < 1:
            raise InvalidParameterError("degree_bound must be at least 1")
        self.name = f"kuhn-defective-edge[p'={p_prime}]"
        self.p_prime = p_prime
        self.degree_bound = degree_bound
        self.output_key = output_key
        self.class_key = class_key
        self.output_palette = p_prime * p_prime
        self.defect_bound = 4 * ceil_div(degree_bound, p_prime)
        self._chunk = max(1, ceil_div(degree_bound, p_prime))

    # ------------------------------------------------------------------ #

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        node_id = view.node_id
        if not (isinstance(node_id, tuple) and len(node_id) == 2):
            raise InvalidParameterError(NOT_A_LINE_GRAPH)

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        own_class = state.get(self.class_key) if self.class_key else None
        return {"class": own_class}

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        own_class = state.get(self.class_key) if self.class_key else None
        active_neighbors = [
            neighbor
            for neighbor, payload in inbox.items()
            if payload.get("class") == own_class
        ]

        endpoint_a, endpoint_b = view.node_id
        label_a = self._label_at_endpoint(endpoint_a, view.node_id, active_neighbors)
        label_b = self._label_at_endpoint(endpoint_b, view.node_id, active_neighbors)
        state[self.output_key] = (label_a - 1) * self.p_prime + label_b
        return True

    def max_rounds(self, n: int, max_degree: int) -> int:
        return 2

    # ------------------------------------------------------------------ #

    def _label_at_endpoint(
        self,
        endpoint: Hashable,
        own_edge: Tuple[Hashable, Hashable],
        active_neighbors: List[Tuple[Hashable, Hashable]],
    ) -> int:
        """The label the vertex ``endpoint`` assigns to ``own_edge``.

        Every edge incident to ``endpoint`` (within the active class) computes
        the same deterministic ordering of that incidence list, so all of them
        agree on the labeling without any extra communication.
        """
        incident = [own_edge] + [
            neighbor for neighbor in active_neighbors if endpoint in neighbor
        ]
        incident.sort(key=node_sort_key)
        rank = incident.index(own_edge)
        label = rank // self._chunk + 1
        return min(label, self.p_prime)

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        An edge's label at an endpoint is its rank (in ``node_sort_key``
        order, pre-encoded in the incidence metadata's ``sort_rank`` column)
        among the incident edges of the same class -- that is, the number of
        same-class CSR neighbors that share the endpoint and sort strictly
        before it.  The fused ``edge_rank`` kernel counts them when
        ``ctx.kernels`` is set; otherwise it is one masked ``bincount`` over
        the (possibly CSR-masked) line-graph adjacency per endpoint column.
        """
        fast = ctx.fast
        meta = line_meta_for(fast)
        n = fast.num_nodes
        codes, sizes = self._class_column(ctx)

        edge_u, edge_v, sort_rank = meta.edge_u, meta.edge_v, meta.sort_rank
        if ctx.kernels is not None:
            has_codes = codes is not None
            rank_u = np.empty(n, dtype=np.int64)
            rank_v = np.empty(n, dtype=np.int64)
            ctx.kernels.edge_rank(
                fast.indptr,
                fast.indices,
                np.ascontiguousarray(edge_u, dtype=np.int64),
                np.ascontiguousarray(edge_v, dtype=np.int64),
                np.ascontiguousarray(sort_rank, dtype=np.int64),
                np.ascontiguousarray(codes if has_codes else np.zeros(n), dtype=np.int64),
                int(has_codes),
                rank_u,
                rank_v,
            )
        else:
            rows, cols = fast.rows_np, fast.indices_np
            before = sort_rank[cols] < sort_rank[rows]
            if codes is not None:
                before &= codes[rows] == codes[cols]
            neighbor_u, neighbor_v = edge_u[cols], edge_v[cols]
            rank_u = np.bincount(
                rows[before & ((neighbor_u == edge_u[rows]) | (neighbor_v == edge_u[rows]))],
                minlength=n,
            )
            rank_v = np.bincount(
                rows[before & ((neighbor_u == edge_v[rows]) | (neighbor_v == edge_v[rows]))],
                minlength=n,
            )
        label_u = np.minimum(rank_u // self._chunk + 1, self.p_prime)
        label_v = np.minimum(rank_v // self._chunk + 1, self.p_prime)

        # One round: every node broadcasts {"class": value} and halts.
        if sizes is None:
            ctx.charge_uniform_broadcast(1, payload_words=2)
        else:
            nnz = len(fast.indices)
            degrees = fast.degrees_np
            ctx.charge(
                rounds=1,
                messages=nnz,
                total_words=int((degrees * sizes).sum()),
                max_message_words=int(sizes[degrees > 0].max()) if nnz else 0,
            )
        ctx.write_column(self.output_key, (label_u - 1) * self.p_prime + label_v)

    def _class_column(self, ctx: VectorContext):
        """Per-node ``(codes, sizes)`` of the class values.

        ``codes`` is an ``int64`` column whose equality matches Python ``==``
        on the class values (``None`` when no class restriction applies --
        all nodes active together); ``sizes`` is the per-node word size of
        the ``{"class": value}`` broadcast payload (``None`` for the uniform
        2-word scalar case).
        """
        if self.class_key is None:
            return None, None
        table = ctx.table
        if self.class_key not in table:
            return None, None  # state.get(class_key) is None on every node
        kind = table.kind(self.class_key)
        try:
            if kind == "int":
                return table.get_ints(self.class_key), None
            if kind == "path":
                ids = table.path_ids(self.class_key)
                interned = table.path_interned(self.class_key)
                words = np.fromiter(
                    (1 + payload_size_words(path) for path in interned),
                    dtype=np.int64,
                    count=len(interned),
                )
                return ids, words[ids]
        except KeyError:
            pass  # Partially present column: state.get semantics below.
        values = table.get_values_or_none(self.class_key)

        codes = np.empty(len(values), dtype=np.int64)
        try:
            lookup: Dict[Any, int] = {}
            for i, value in enumerate(values):
                codes[i] = lookup.setdefault(value, len(lookup))
        except TypeError:  # unhashable class values: equality scan
            seen: List[Any] = []
            for i, value in enumerate(values):
                for code, candidate in enumerate(seen):
                    if candidate == value:
                        codes[i] = code
                        break
                else:
                    codes[i] = len(seen)
                    seen.append(value)
        sizes = np.fromiter(
            (1 + payload_size_words(value) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        return codes, sizes
