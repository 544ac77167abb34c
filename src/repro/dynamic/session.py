"""Dynamic recoloring sessions: incremental repair under edge churn.

A :class:`DynamicColoring` wraps a CSR
:class:`~repro.local_model.fast_network.FastNetwork` together with a legal
color column and keeps the coloring legal while the edge set churns.  Updates
arrive as batched raw ``int64`` edge arrays
(:meth:`DynamicColoring.apply_updates`); each batch is processed in three
array-native steps:

1. **CSR patch** -- :meth:`FastNetwork.with_edge_updates` finds each removed
   or inserted entry by a bisection inside its own row, deletes and inserts
   those entries in the index column and patches the touched rows' degrees;
   no search over the whole edge set, no symmetrize-sort of it.
2. **Conflict detection** -- deletions never create conflicts and the
   pre-state is legal, so every monochromatic edge of the patched graph is a
   freshly inserted one: the batch's canonical insertion pairs are checked
   directly (``colors[u] == colors[v]``), an ``O(|batch|)`` probe instead of
   an ``O(|E|)`` scan over the CSR.
3. **Local repair** -- the *conflict ball* (exactly the conflicted
   vertices, whose induced subgraph is a near-matching of the conflict
   edges) is extracted as a **compact** induced sub-view
   (:meth:`FastNetwork.induced`, ``k`` nodes instead of ``n``), the
   existing vectorized Legal-Color pipeline
   (:func:`repro.core.color_vertices`) recolors it, and the ball-run's color
   classes -- independent sets of the *full* graph, because every edge
   between ball vertices is inside the induced sub-view -- are folded back
   into the global palette class by class: each vertex takes the smallest
   color unused by any of its (frozen or already-realigned) neighbors, a
   single lexsort-and-scan kernel per class.  A repaired vertex therefore
   never exceeds ``deg(v) + 1 <= Delta + 1`` colors, which keeps the
   session's palette bound within every from-scratch bound.

The ``strategy="recompute"`` reference mode applies the identical CSR patch
and then re-colors the whole graph from scratch, so the incremental mode is
*differentially testable* against it on every step: both must be legal, and
the incremental session's palette bound is dominated by the running maximum
of the recompute bounds (``tests/test_dynamic_coloring.py`` locks both down
under hypothesis-driven churn schedules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.legal_coloring import color_vertices
from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, fast_view, index_array
from repro.local_model.fast_network import sorted_distinct
from repro.local_model.kernels._numpy import first_free_slot
from repro.local_model.metrics import RunMetrics
from repro.verification.coloring import assert_legal_vertex_coloring

#: Accepted batch shapes: an ``(k, 2)`` array, a ``(u, v)`` array pair, a
#: sequence of 2-tuples, or ``None`` / empty for "no edges".
EdgeBatch = Union[None, np.ndarray, Tuple[np.ndarray, np.ndarray], Sequence]

_STRATEGIES = ("incremental", "recompute")


def _as_endpoint_arrays(batch: EdgeBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize an update batch to two flat ``int64`` endpoint arrays."""
    if batch is None:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if isinstance(batch, tuple) and len(batch) == 2:
        u = index_array(batch[0], "edge endpoints").ravel()
        v = index_array(batch[1], "edge endpoints").ravel()
        if u.shape != v.shape:
            raise InvalidParameterError(
                f"endpoint arrays disagree in length: {len(u)} vs {len(v)}"
            )
        return u, v
    edges = index_array(batch, "edge endpoints")
    if edges.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise InvalidParameterError(
            f"an edge batch must have shape (k, 2), got {edges.shape}"
        )
    return edges[:, 0].copy(), edges[:, 1].copy()


def _canonical_pairs(u: np.ndarray, v: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct undirected pairs as ``(low, high)`` arrays, in pair-key order."""
    return np.divmod(sorted_distinct(np.minimum(u, v) * n + np.maximum(u, v)), n)


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`DynamicColoring.apply_updates` batch did.

    Attributes
    ----------
    step:
        1-based index of the batch within the session.
    edges_added, edges_removed:
        Canonical edges actually inserted / actually deleted (duplicates and
        no-ops within the batch excluded).
    conflicts:
        Monochromatic edges detected after the CSR patch.
    repaired_nodes:
        Vertices whose color was reassigned (the conflict ball; 0 when the
        batch created no conflicts, and ``n`` under ``strategy="recompute"``
        whenever the graph was re-colored).
    strategy:
        ``"incremental"`` or ``"recompute"``.
    palette_bound:
        The session's palette guarantee after this batch (monotone).
    fallback_phases:
        Always empty; kept only because perfbench reads it (ROADMAP item 1).
    """

    step: int
    edges_added: int
    edges_removed: int
    conflicts: int
    repaired_nodes: int
    strategy: str
    palette_bound: int
    fallback_phases: Tuple[str, ...] = ()


class DynamicColoring:
    """A long-lived vertex-coloring session over a churning edge set.

    Parameters
    ----------
    network:
        The initial graph, a :class:`FastNetwork`.  The node set is fixed
        for the lifetime of the session; only edges churn.
    c:
        Neighborhood-independence bound handed to Procedure Legal-Color
        (conservatively kept valid under churn: inserting edges can only
        be colored against, not analyzed structurally, so pass the bound of
        the workload family).
    quality, epsilon:
        The Theorem 4.8 preset of the underlying Legal-Color runs.
    strategy:
        ``"incremental"`` (default): patch + conflict-ball repair.
        ``"recompute"``: patch + full from-scratch re-coloring -- the
        differential reference mode.
    engine:
        Execution engine of every underlying run (``None`` is
        ``"vectorized"``).  The session is deterministic, and every engine
        produces identical columns (golden-locked in
        ``tests/data/dynamic_churn_regular32x8.json``).
    """

    def __init__(
        self,
        network,
        *,
        c: int,
        quality: str = "superlinear",
        epsilon: float = 0.75,
        strategy: str = "incremental",
        engine: Optional[str] = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; known strategies: {_STRATEGIES}"
            )
        self.strategy = strategy
        self._c = c
        self._quality = quality
        self._epsilon = epsilon
        self._engine = engine
        self._fast = fast_view(network)
        self._step = 0
        self.metrics = RunMetrics()
        self.reports: List[UpdateReport] = []
        self._column, self.palette_bound = self._full_recolor(self._fast)

    # ------------------------------------------------------------------ #
    # State accessors
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> FastNetwork:
        """The current (patched) CSR view."""
        return self._fast

    @property
    def color_column(self) -> np.ndarray:
        """The current legal coloring as an ``int64`` column (a copy)."""
        return self._column.copy()

    @property
    def colors(self) -> Dict[Hashable, int]:
        """The current coloring as a node-identifier mapping."""
        return dict(zip(self._fast.order, self._column.tolist()))

    def verify(self) -> None:
        """Assert the current coloring is legal (vectorized oracle)."""
        assert_legal_vertex_coloring(self._fast, self._column)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def apply_updates(
        self, added: EdgeBatch = None, removed: EdgeBatch = None
    ) -> UpdateReport:
        """Apply one batch of edge insertions/deletions and repair.

        ``added`` / ``removed`` hold raw ``int64`` endpoint pairs over the
        session's fixed dense node indices.  Duplicate entries, insertions of
        present edges and removals of absent edges are no-ops; removals apply
        before insertions; empty (or ``None``) batches are legal and cheap.
        Returns the batch's :class:`UpdateReport` (also appended to
        :attr:`reports`).
        """
        add_u, add_v = _as_endpoint_arrays(added)
        rem_u, rem_v = _as_endpoint_arrays(removed)
        before_edges = self._fast.num_edges
        if len(add_u) or len(rem_u):
            patched = self._fast.with_edge_updates(add_u, add_v, rem_u, rem_v)
        else:
            patched = self._fast
        removed_count = self._count_removed(self._fast, rem_u, rem_v)
        added_count = patched.num_edges - before_edges + removed_count
        self._fast = patched
        self._step += 1

        if self.strategy == "recompute":
            self._column, bound = self._full_recolor(patched)
            self.palette_bound = max(self.palette_bound, bound)
            report = UpdateReport(
                step=self._step,
                edges_added=added_count,
                edges_removed=removed_count,
                conflicts=0,
                repaired_nodes=patched.num_nodes,
                strategy=self.strategy,
                palette_bound=self.palette_bound,
            )
            self.reports.append(report)
            return report

        # Only freshly inserted edges can be monochromatic (the pre-state is
        # legal and deletions never create conflicts), so probing the batch's
        # canonical insertion pairs is both exhaustive and O(|batch|).
        if len(add_u):
            cand_u, cand_v = _canonical_pairs(add_u, add_v, patched.num_nodes)
            mono = self._column[cand_u] == self._column[cand_v]
            conflict_u, conflict_v = cand_u[mono], cand_v[mono]
        else:
            conflict_u = conflict_v = np.zeros(0, dtype=np.int64)
        num_conflicts = len(conflict_u)
        repaired = self._repair(conflict_u, conflict_v) if num_conflicts else 0
        report = UpdateReport(
            step=self._step,
            edges_added=added_count,
            edges_removed=removed_count,
            conflicts=num_conflicts,
            repaired_nodes=repaired,
            strategy=self.strategy,
            palette_bound=self.palette_bound,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _count_removed(
        before: FastNetwork, rem_u: np.ndarray, rem_v: np.ndarray
    ) -> int:
        """How many of the removal pairs actually existed before the patch."""
        if not len(rem_u):
            return 0
        low, high = _canonical_pairs(rem_u, rem_v, before.num_nodes)
        return int(before.ascending_rows()._find_entries(low, high)[1].sum())

    def _full_recolor(self, fast: FastNetwork) -> Tuple[np.ndarray, int]:
        """From-scratch Legal-Color over the whole current graph."""
        result = color_vertices(
            fast,
            c=self._c,
            quality=self._quality,
            epsilon=self._epsilon,
            engine=self._engine,
        )
        self.metrics.merge(result.metrics)
        return np.ascontiguousarray(result.color_column, dtype=np.int64), result.palette

    def _repair(self, conflict_u: np.ndarray, conflict_v: np.ndarray) -> int:
        """Recolor the conflict ball; returns how many vertices were recolored."""
        fast = self._fast
        ball = np.zeros(fast.num_nodes, dtype=bool)
        ball[conflict_u] = True
        ball[conflict_v] = True
        sub, nodes = fast.induced(ball)
        result = color_vertices(
            sub,
            c=self._c,
            quality=self._quality,
            epsilon=self._epsilon,
            engine=self._engine,
        )
        self.metrics.merge(result.metrics)
        ball_colors = result.color_column

        # Fold the ball coloring into the global palette class by class.
        # Each ball color class is an independent set of the full graph
        # (every G-edge between ball vertices is inside the induced view),
        # so its members can be realigned simultaneously: each takes the
        # smallest color missing from its current neighbor colors, which is
        # at most deg(v) + 1 and never collides within the class.
        for klass in sorted_distinct(ball_colors):
            members = nodes[ball_colors == klass]
            self._column[members] = self._smallest_missing(members)
        self.palette_bound = max(self.palette_bound, fast.max_degree + 1)
        return len(nodes)

    def _smallest_missing(self, members: np.ndarray) -> np.ndarray:
        """Per-member smallest positive color unused by its neighbors."""
        fast = self._fast
        owner, neighbors = fast.gather_adjacency(members)
        # A member's free color is at most its degree + 1.
        limit = 1 + int(fast.degrees[members].max())
        neighbor_colors = self._column[neighbors]
        below = neighbor_colors <= limit
        return first_free_slot(len(members), limit, owner[below], neighbor_colors[below] - 1) + 1
