"""Dynamic recoloring sessions: incremental repair under edge churn.

A :class:`DynamicColoring` wraps a CSR
:class:`~repro.local_model.fast_network.FastNetwork` together with a legal
color column and keeps the coloring legal while the edge set churns.  Updates
arrive as batched raw ``int64`` edge arrays
(:meth:`DynamicColoring.apply_updates`); each batch is processed in three
array-native steps:

1. **CSR patch** -- :meth:`FastNetwork.with_edge_updates` delta-merges the
   removal/insertion keys into the existing (sorted) directed-entry keys and
   rebuilds the CSR with one bincount/cumsum pass; no full symmetrize-lexsort
   of the edge set.
2. **Conflict detection** -- deletions never create conflicts and the
   pre-state is legal, so every monochromatic edge of the patched graph is a
   freshly inserted one: the batch's canonical insertion pairs are checked
   directly (``colors[u] == colors[v]``), an ``O(|batch|)`` probe instead of
   an ``O(|E|)`` scan over the CSR.
3. **Local repair** -- the *conflict ball* (conflicted vertices plus
   ``ball_radius`` hops of neighborhood; the default radius 0 repairs
   exactly the conflicted vertices, whose induced subgraph is a
   near-matching of the conflict edges) is extracted as a **compact**
   induced sub-view (:meth:`FastNetwork.induced`, ``k`` nodes instead of
   ``n``), the existing vectorized Legal-Color pipeline
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
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs, fast_view, index_array
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
        Execution engine of every underlying run.  ``None`` takes the
        process default at each run (see
        :func:`repro.local_model.engine.default_engine`).  The session is
        deterministic, and every engine produces identical columns
        (golden-locked in ``tests/data/dynamic_churn_regular32x8.json``).
    ball_radius:
        How many hops around a conflicted vertex are recolored (>= 0).
        The default 0 recolors exactly the conflicted vertices -- the
        fold-back kernel guarantees legality for any recolored set, so a
        wider ball only trades repair cost for more context in the ball
        run, never correctness.
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
        ball_radius: int = 0,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; known strategies: {_STRATEGIES}"
            )
        if ball_radius < 0:
            raise InvalidParameterError("ball_radius must not be negative")
        self.strategy = strategy
        self.ball_radius = ball_radius
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
            n = patched.num_nodes
            low = np.minimum(add_u, add_v)
            high = np.maximum(add_u, add_v)
            candidates = np.unique(low * n + high)
            cand_u, cand_v = candidates // n, candidates % n
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
        n = before.num_nodes
        keys = before.edge_keys_np
        low = np.minimum(rem_u, rem_v)
        high = np.maximum(rem_u, rem_v)
        asked = np.unique(low * n + high)
        slots = np.searchsorted(keys, asked)
        inside = slots < len(keys)
        return int((keys[slots[inside]] == asked[inside]).sum())

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
        indptr, indices, degrees = fast.indptr_np, fast.indices_np, fast.degrees_np
        ball = np.zeros(fast.num_nodes, dtype=bool)
        ball[conflict_u] = True
        ball[conflict_v] = True
        # Grow by gathering the ball members' adjacency slices -- O(volume
        # of the ball) per hop, never an O(|E|) scan of the whole CSR.
        for _ in range(self.ball_radius):
            seeds = np.flatnonzero(ball)
            counts = degrees[seeds]
            total = int(counts.sum())
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ball[indices[np.repeat(indptr[seeds], counts) + offsets]] = True

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
        for klass in np.unique(ball_colors):
            members = nodes[ball_colors == klass]
            self._column[members] = self._smallest_missing(members)
        self.palette_bound = max(self.palette_bound, fast.max_degree + 1)
        return len(nodes)

    def _smallest_missing(self, members: np.ndarray) -> np.ndarray:
        """Per-member smallest positive color unused by its neighbors."""
        fast = self._fast
        indptr, indices = fast.indptr_np, fast.indices_np
        counts = fast.degrees_np[members]
        total = int(counts.sum())
        if total == 0:
            return np.ones(len(members), dtype=np.int64)
        owner = np.repeat(np.arange(len(members), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        entries = np.repeat(indptr[members], counts) + offsets
        neighbor_colors = self._column[indices[entries]]

        by_owner_color = _lexsort_pairs(owner, neighbor_colors)
        oc = owner[by_owner_color]
        cc = neighbor_colors[by_owner_color]
        distinct = np.empty(len(oc), dtype=bool)
        distinct[0] = True
        distinct[1:] = (oc[1:] != oc[:-1]) | (cc[1:] != cc[:-1])
        oc, cc = oc[distinct], cc[distinct]
        group_sizes = np.bincount(oc, minlength=len(members))
        starts = np.cumsum(group_sizes) - group_sizes
        rank = np.arange(len(oc), dtype=np.int64) - starts[oc]
        candidate = rank + 1
        # Default: all of 1..k are taken, so the answer is k + 1; a gap at
        # rank r means color r + 1 is free -- take the first such gap.
        chosen = group_sizes + 1
        gap = cc != candidate
        np.minimum.at(chosen, oc[gap], candidate[gap])
        return chosen.astype(np.int64)
