"""Procedure Legal-Color (Algorithm 2) and the Theorem 4.5 / 4.6 / 4.8 results.

Procedure Legal-Color turns the defective coloring of Algorithm 1 into a
*legal* coloring by recursion: an ``O(Lambda/p)``-defective ``p``-coloring
``psi`` splits the graph into ``p`` vertex-disjoint subgraphs
``G_1, ..., G_p`` of maximum degree ``Lambda' = O(Lambda/p)``; the procedure
recurses on all of them in parallel, and once the degree bound drops to the
threshold ``lambda`` it colors the remaining subgraphs directly with a
``(Lambda + 1)``-coloring.  The per-level colorings are merged by giving the
subgraphs of one level pairwise-disjoint palettes of equal size
(``theta^{(j)} = p * theta^{(j+1)}``, Figure 3), so the final palette has
``theta^{(0)} = p^r * (hat-Lambda + 1)`` colors -- which is ``O(Delta)`` for
the Theorem 4.5 parameters and ``O(Delta^{1+eta})`` for the Theorem 4.6
parameters.

Execution model.  The recursion is *iterative* here: all subgraphs of one
level share the same parameters, so one pass of Procedure Defective-Color on
the union of the subgraphs (with edges between different subgraphs removed)
is exactly the "invoke recursively on each subgraph in parallel" step of the
paper, and the measured rounds of that pass equal the parallel time of the
level.  Every vertex carries its recursion *path*, the ``psi``-colors it
received so far read as the digits of one base-``p`` integer:
``path = path * p + (psi_j - 1)`` at level ``j``.  Two vertices are in the
same current subgraph exactly when their paths are equal, and since the
level-``j`` palettes are spaced ``theta^{(j)} = p * theta^{(j+1)}`` apart,
the merged final color is ``bottom + path * (hat-Lambda + 1)``.

The level recursion itself needs no graph: every level's ``Lambda'`` is the
Theorem 3.7 bound of the level above, so :func:`plan_legal_coloring` works
out the degree bounds, the bottom bound ``hat-Lambda`` and the palette
``p^L * (hat-Lambda + 1)`` from ``(b, p, lambda, Delta, c, mode)`` alone, and
:func:`run_legal_coloring` executes that plan level by level.  The plan
bottoms out early where the next bound would not shrink: such a level would
only multiply the palette by ``p`` and add rounds.

Node state lives in a :class:`~repro.local_model.state_table.StateTable`
throughout: the paths are one ``int64`` column (so the per-level subgraph
filtering, the path extension, the subgraph count and the palette merge are
single array operations), and each level's scheduler pass runs through the engines'
``run_table`` entry points -- natively columnar on the vectorized engine,
through the exact dict view on the reference engine.

Every run plans from the graph's measured maximum degree ``Delta`` and
applies the Section 4.2 improvement: an auxiliary ``O(Delta^2)``-coloring
``rho`` is computed once (``log* n`` rounds) and fed to every level's
defective-coloring step, so the per-level cost depends only on ``Delta``,
not on ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.local_model.engine import make_scheduler, resolve_engine
from repro.local_model.fast_network import FastNetwork, fast_view, sorted_distinct
from repro.local_model.line_csr import line_meta_for
from repro.local_model.metrics import RunMetrics
from repro.local_model.state_table import StateTable
from repro.core.defective_coloring import defective_color_pipeline, psi_defect_bound
from repro.core.parameters import (
    LegalColorParameters,
    independence_bound,
    params_for_few_rounds,
    params_for_quality,
)
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.linial import LinialColoringPhase


@dataclass(frozen=True)
class LevelTrace:
    """One recursion level of Procedure Legal-Color (one row of Figure 3).

    Attributes
    ----------
    level:
        Recursion depth (0 = the invocation on the whole input graph).
    degree_bound:
        The parameter ``Lambda`` of this level.
    phi_palette:
        Number of colors of the level's auxiliary defective coloring ``phi``
        (bounds the level's round count).
    next_degree_bound:
        The bound ``Lambda'`` passed to the next level (Theorem 3.7).
    num_subgraphs:
        How many non-empty subgraphs exist at this level.
    max_subgraph_degree:
        The *measured* maximum degree over the level's subgraphs (must not
        exceed ``degree_bound``; verified by the tests).
    rounds:
        Communication rounds spent on this level.
    """

    level: int
    degree_bound: int
    phi_palette: int
    next_degree_bound: int
    num_subgraphs: int
    max_subgraph_degree: int
    rounds: int


@dataclass(frozen=True)
class LegalColorPlan:
    """Procedure Legal-Color's level recursion, worked out without the graph.

    Level ``j`` runs Procedure Defective-Color with
    ``Lambda = degree_bounds[j]`` and hands its Theorem 3.7 defect bound
    ``degree_bounds[j + 1]`` to the next level; the last entry is the bound
    ``hat-Lambda`` the recursion bottoms out at.
    """

    params: LegalColorParameters
    degree_bounds: Tuple[int, ...]

    @property
    def num_levels(self) -> int:
        return len(self.degree_bounds) - 1

    @property
    def palette(self) -> int:
        """``theta^{(0)} = p^L * (hat-Lambda + 1)`` (Figure 3)."""
        return self.params.p**self.num_levels * (self.degree_bounds[-1] + 1)


def plan_legal_coloring(
    params: LegalColorParameters, degree_bound: int, c: int, edge_mode: bool = False
) -> LegalColorPlan:
    """The levels Procedure Legal-Color runs from the degree bound ``degree_bound``.

    The recursion continues while the bound exceeds the threshold ``lambda``,
    the parameters stay valid at that scale (``b * p <= Lambda``,
    ``p >= 2``) and the next bound ``Lambda'`` is smaller than ``Lambda``.
    A level whose ``Lambda'`` does not shrink is never planned: it would
    split into ``p`` classes of bound ``Lambda' >= Lambda``, so its palette
    ``p * (Lambda' + 1)`` exceeds the ``Lambda + 1`` of bottoming out now.
    ``edge_mode`` selects the Corollary 5.4 defect of the direct route.
    """
    mode = "edge" if edge_mode else "vertex"
    bounds = [degree_bound]
    while bounds[-1] > params.threshold:
        bound = bounds[-1]
        if params.b * params.p > bound or params.p < 2:
            break  # Parameters no longer valid at this degree scale; bottom out.
        next_bound = psi_defect_bound(params.b, params.p, bound, c, mode)
        if next_bound >= bound:
            break  # No progress with these parameters; bottom out.
        bounds.append(next_bound)
    return LegalColorPlan(params=params, degree_bounds=tuple(bounds))


@dataclass
class LegalColoringResult:
    """The outcome of Procedure Legal-Color.

    Attributes
    ----------
    colors:
        The legal coloring, one color in ``{1, ..., palette}`` per node: a
        read-only mapping over ``color_column`` that interns the node
        identifiers on first access (see
        :class:`~repro.local_model.fast_network.ColumnMapping`).
    palette:
        The palette bound ``theta^{(0)}`` guaranteed by the run (the number of
        *distinct* colors actually used may be smaller).
    metrics:
        Rounds / messages / bandwidth of the whole computation.
    levels:
        Per-level trace (the Figure 3 recursion tree, collapsed per level).
    parameters:
        The parameter preset that was used.
    bottom_degree_bound:
        The degree bound ``hat-Lambda`` at which the recursion bottomed out.
    bottom_max_degree:
        The measured maximum degree of the subgraphs the bottom colors (the
        bottom view's ``max_degree``).  The last level's Theorem 3.7 bound
        held when this is at most that level's ``next_degree_bound``.
    color_column:
        The same coloring as ``colors``, as an ``int64`` array in the dense
        node order of the network's
        :class:`~repro.local_model.fast_network.FastNetwork` view -- callers
        that post-process the coloring (the tradeoff and randomized wrappers)
        merge palettes without a per-node pass.
    """

    colors: Mapping[Hashable, int]
    palette: int
    metrics: RunMetrics
    levels: List[LevelTrace] = field(default_factory=list)
    parameters: Optional[LegalColorParameters] = None
    bottom_degree_bound: int = 0
    bottom_max_degree: int = 0
    color_column: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def num_levels(self) -> int:
        """Number of recursion levels executed before the bottom coloring."""
        return len(self.levels)

    @property
    def colors_used(self) -> int:
        """Number of distinct colors actually present in the coloring."""
        if self.color_column is None:
            return len(set(self.colors.values()))
        return len(sorted_distinct(self.color_column))


def run_coloring_phases(
    network: FastNetwork,
    algorithm,
    output_key: str,
    palette: int,
    engine: Optional[str] = None,
) -> LegalColoringResult:
    """Run a one-pass coloring ``algorithm`` (a phase or pipeline) on a fresh table.

    The coloring is the ``output_key`` column (empty on an empty graph), in
    the dense node order of ``network``; ``palette`` is the bound the
    algorithm guarantees.  The ``Delta + 1`` baselines run through here.
    """
    fast = fast_view(network)
    table, metrics = make_scheduler(fast, engine=engine).run_table(
        algorithm, StateTable(fast.num_nodes)
    )
    if fast.num_nodes:
        column = table.get_ints(output_key)
    else:
        column = np.zeros(0, dtype=np.int64)
    return LegalColoringResult(
        colors=fast.column_mapping(column),
        palette=palette,
        metrics=metrics,
        color_column=column,
    )


def run_legal_coloring(
    network: FastNetwork,
    params: LegalColorParameters,
    c: int,
    edge_mode: bool = False,
    engine: Optional[str] = None,
) -> LegalColoringResult:
    """Run Procedure Legal-Color on ``network``.

    The plan starts from the measured maximum degree ``Delta`` of
    ``network`` (a graph with ``Delta = 0`` gets palette 1), and the
    Section 4.2 auxiliary ``O(Delta^2)``-coloring ``rho`` is computed once
    and fed to every level.

    Parameters
    ----------
    network:
        The graph to color -- a (possibly CSR-masked)
        :class:`~repro.local_model.fast_network.FastNetwork`.  In
        ``edge_mode`` this must be a line graph, as produced by
        :func:`repro.local_model.line_csr.build_line_graph_fast`, or a view
        whose node identifiers are edge 2-tuples (built by hand with
        :meth:`~repro.local_model.fast_network.FastNetwork.from_adjacency`).
    params:
        The ``(b, p, lambda)`` preset (see :mod:`repro.core.parameters`).
    c:
        The bound on the neighborhood independence of ``network``
        (``c = 2`` for line graphs of graphs, ``c = r`` for line graphs of
        ``r``-hypergraphs).
    edge_mode:
        Use Corollary 5.4 instead of Lemma 2.1(3) for the per-level defective
        coloring ``phi`` -- this is the Theorem 5.5 variant whose messages
        stay small.
    engine:
        Execution engine: ``"reference"`` (the message-at-a-time scheduler),
        ``"vectorized"`` (the array engine), or ``None`` for the process
        default (see :mod:`repro.local_model.engine`).

    Returns
    -------
    LegalColoringResult
        The legal coloring together with its palette bound, metrics and the
        per-level recursion trace.
    """
    c = independence_bound(c)
    if network.num_nodes == 0:
        return LegalColoringResult(
            colors={},
            palette=1,
            metrics=RunMetrics(),
            parameters=params,
            color_column=np.zeros(0, dtype=np.int64),
        )
    fast = fast_view(network)
    if edge_mode and resolve_engine(engine) == "vectorized":
        # Derive (and cache) the dense line-graph incidence encoding up
        # front: every per-level CSR-masked sub-view inherits it, so the
        # Corollary 5.4 kernel never falls back to per-node Python.  Views
        # built by build_line_graph_fast already carry it (free).
        line_meta_for(fast)
    delta = fast.max_degree
    params.validate(delta, c)

    metrics = RunMetrics()
    # Node state is columnar: the base-p recursion paths are one int column
    # beside the columns the phases produce, so each level's subgraph
    # filtering is a single label comparison over the CSR arrays.
    table = StateTable(fast.num_nodes)
    table.fill_int("_path", 0)

    # ------------------------------------------------------------------ #
    # Section 4.2: auxiliary O(Delta^2)-coloring rho, computed once.
    # ------------------------------------------------------------------ #
    aux_phase = LinialColoringPhase(
        degree_bound=delta, initial_palette=fast.num_nodes, output_key="_aux_rho"
    )
    table, aux_metrics = make_scheduler(fast, engine=engine).run_table(aux_phase, table)
    metrics.merge(aux_metrics)

    # ------------------------------------------------------------------ #
    # Recursion levels, as planned (executed iteratively; all subgraphs of a
    # level run in parallel on the path-filtered CSR view of the network).
    # Paths only refine, so each level's view is filtered from the previous
    # one (the same CSR as filtering the root), and while every path is
    # still equal the view is the root itself.
    # ------------------------------------------------------------------ #
    plan = plan_legal_coloring(params, delta, c, edge_mode=edge_mode)
    bounds = plan.degree_bounds
    view = fast
    levels: List[LevelTrace] = []
    num_subgraphs = 1
    for level in range(plan.num_levels):
        if num_subgraphs > 1:
            view = view.filtered_by_labels(table.get_ints("_path"))
        pipeline, info = defective_color_pipeline(
            n=fast.num_nodes,
            b=params.b,
            p=params.p,
            Lambda=bounds[level],
            c=c,
            mode="edge" if edge_mode else "vertex",
            auxiliary_key="_aux_rho",
            auxiliary_palette=aux_phase.final_palette,
            output_key="_psi",
        )
        table, level_metrics = make_scheduler(view, engine=engine).run_table(
            pipeline, table
        )
        metrics.merge(level_metrics)

        # psi is the level's base-p digit of the path (psi lies in 1..p).
        path = table.get_ints("_path") * params.p + table.get_ints("_psi") - 1
        table.set_ints("_path", path)
        num_subgraphs = len(sorted_distinct(path))
        levels.append(
            LevelTrace(
                level=level,
                degree_bound=bounds[level],
                phi_palette=info.phi_palette,
                next_degree_bound=bounds[level + 1],
                num_subgraphs=num_subgraphs,
                max_subgraph_degree=view.max_degree,
                rounds=level_metrics.rounds,
            )
        )

    # ------------------------------------------------------------------ #
    # Bottom level: a legal (Lambda + 1)-coloring of every remaining subgraph.
    # ------------------------------------------------------------------ #
    if num_subgraphs > 1:
        view = view.filtered_by_labels(table.get_ints("_path"))
    bottom_bound = max(bounds[-1], view.max_degree)
    bottom_target = bottom_bound + 1
    bottom_pipeline, _ = delta_plus_one_pipeline(
        n=fast.num_nodes,
        degree_bound=bottom_bound,
        initial_palette=aux_phase.final_palette,
        input_key="_aux_rho",
        output_key="_bottom_color",
        target=bottom_target,
    )
    table, bottom_metrics = make_scheduler(view, engine=engine).run_table(
        bottom_pipeline, table
    )
    metrics.merge(bottom_metrics)

    # ------------------------------------------------------------------ #
    # Merge the per-level colorings into disjoint palettes (Figure 3): level
    # j's psi-colors are spaced theta^{(j+1)} = p^{L-j-1} * (hat-Lambda + 1)
    # apart, which is the base-p path times the bottom palette, and the
    # palette is theta^{(0)} = p^L * (hat-Lambda + 1).
    # ------------------------------------------------------------------ #
    color_column = table.get_ints("_bottom_color") + table.get_ints("_path") * bottom_target
    return LegalColoringResult(
        colors=fast.column_mapping(color_column),
        palette=params.p**plan.num_levels * bottom_target,
        metrics=metrics,
        levels=levels,
        parameters=params,
        bottom_degree_bound=bottom_bound,
        bottom_max_degree=view.max_degree,
        color_column=color_column,
    )


def _color_split_classes(
    class_network: FastNetwork,
    labels: np.ndarray,
    c: int,
    engine: Optional[str],
    metrics: RunMetrics,
) -> Tuple[np.ndarray, int]:
    """Color every class of a split with Theorem 4.8(2), class palettes stacked.

    ``labels`` holds each node's class in ``{1, ..., k}`` and
    ``class_network`` keeps only the same-class edges (both in one dense node
    order).  The classes run in parallel as one Legal-Color pass, whose
    metrics are merged into ``metrics``; class ``i`` gets the ``i``-th block
    of the per-class palette.  Returns ``(color_column, per_class_palette)``.
    """
    params = params_for_few_rounds(class_network.max_degree, c)
    per_class = run_legal_coloring(class_network, params, c=c, engine=engine)
    metrics.merge(per_class.metrics)
    return (labels - 1) * per_class.palette + per_class.color_column, per_class.palette


def color_vertices(
    network: FastNetwork,
    c: int,
    quality: str = "linear",
    epsilon: float = 0.75,
    engine: Optional[str] = None,
) -> LegalColoringResult:
    """High-level entry point for Theorem 4.8.

    Parameters
    ----------
    network:
        A graph with neighborhood independence at most ``c``.
    c:
        The independence bound (e.g. ``2`` for line graphs / claw-free graphs).
    quality:
        ``"linear"`` -- ``O(Delta)`` colors in ``O(Delta^eps) + log* n`` time
        (Theorem 4.8(1));
        ``"superlinear"`` -- ``O(Delta^{1+eta})`` colors in roughly
        ``O(log Delta) + log* n`` time (Theorem 4.8(2));
        ``"subpolynomial"`` -- ``Delta^{1+o(1)}`` colors in
        ``O((log Delta)^{1+eta}) + log* n`` time (Theorem 4.8(3)).
    epsilon:
        The exponent knob for the ``"linear"`` and ``"subpolynomial"``
        presets.
    """
    return run_legal_coloring(
        network,
        params_for_quality(quality, network.max_degree, c, epsilon),
        c=c,
        engine=engine,
    )
