"""Edge coloring of general graphs (Section 5, Theorems 5.3 and 5.5).

For any graph ``G``, the line graph ``L(G)`` has neighborhood independence at
most 2 (Lemma 5.1) and maximum degree at most ``2 (Delta - 1)``, so the
vertex-coloring algorithms of Section 4 apply to it and directly yield edge
colorings of ``G``.  The paper gives two routes, both implemented here:

* **Simulation route (Theorem 5.3).**  Run the vertex-coloring algorithm on
  ``L(G)`` and simulate it on ``G`` via Lemma 5.2.  Rounds double (plus
  ``O(1)``), and message sizes grow by a factor of ``Delta``
  (``O(Delta log n)``-bit messages).
* **Direct route (Theorem 5.5).**  Keep the edge state at both endpoints of
  every edge: the per-level defective coloring ``phi`` is computed with
  Kuhn's ``O(1)``-round defective *edge* coloring (Corollary 5.4), and the
  ``psi``-selection exchange sends the ``p`` counters ``N_{e,u}(k)`` over
  each edge.  No simulation overhead is incurred and -- in the regime of
  Theorem 5.5(2), where ``p = O(1)`` -- the messages stay of size
  ``O(log n)``.

:func:`color_edges_via_line_graph` is the one place an ``L(G)`` run becomes
an edge coloring of ``G``: both routes and the line-graph baselines of
:mod:`repro.baselines` go through it.  It derives ``L(G)`` with the CSR
line-graph builder (:func:`~repro.local_model.line_csr.build_line_graph_fast`),
straight from ``G``'s CSR arrays, and charges the route: Theorem 5.5 for the
direct route, Lemma 5.2 for every other.  On the vectorized engine the whole
pipeline (including the Corollary 5.4 kernel) runs as array rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork, fast_view, sorted_distinct
from repro.local_model.line_csr import build_line_graph_fast
from repro.local_model.line_graph_sim import (
    SIMULATION_SETUP_ROUNDS,
    apply_lemma_5_2_accounting,
)
from repro.local_model.metrics import RunMetrics
from repro.core.legal_coloring import (
    LegalColoringResult,
    LegalColorPlan,
    LevelTrace,
    plan_legal_coloring,
    run_legal_coloring,
)
from repro.core.parameters import LegalColorParameters, params_for_quality

#: The neighborhood independence of a line graph of an ordinary graph.
LINE_GRAPH_INDEPENDENCE = 2

__all__ = [
    "LINE_GRAPH_INDEPENDENCE",
    "SIMULATION_SETUP_ROUNDS",
    "EdgeColoringResult",
    "color_edges",
    "color_edges_via_line_graph",
    "line_graph_max_degree",
    "plan_edge_coloring",
]


@dataclass
class EdgeColoringResult:
    """The outcome of a distributed edge-coloring computation.

    Attributes
    ----------
    edge_colors:
        Mapping from a canonical edge of ``G`` (a 2-tuple of endpoints) to its
        color.  Lookups in either endpoint order are supported through
        :meth:`color_of`.  On the Legal-Color routes it is the lazy mapping
        of :attr:`LegalColoringResult.colors`: the edge tuples are interned
        on first access only.
    palette:
        The palette bound guaranteed by the run.
    metrics:
        Rounds / messages / bandwidth, already converted to their cost on the
        original network ``G`` (per Lemma 5.2 for the simulation route).
    route:
        ``"simulation"`` or ``"direct"``.
    levels:
        The Legal-Color recursion trace (on ``L(G)``).
    parameters:
        The parameter preset used by Procedure Legal-Color.
    line_graph_max_degree:
        ``Delta(L(G))``, recorded for reporting.
    """

    edge_colors: Mapping[Tuple[Hashable, Hashable], int]
    palette: int
    metrics: RunMetrics
    route: str
    levels: List[LevelTrace] = field(default_factory=list)
    parameters: Optional[LegalColorParameters] = None
    line_graph_max_degree: int = 0
    #: The same coloring as ``edge_colors``, as an ``int64`` array over the
    #: canonical edges of ``G`` in unique-id pair order (= the dense node
    #: order of ``L(G)``) -- the array-form input of the vectorized
    #: verification oracles.
    color_column: Optional["np.ndarray"] = field(
        default=None, repr=False, compare=False
    )
    #: Endpoint-order-insensitive lookup index, built lazily on the first
    #: :meth:`color_of` call -- most callers only consume ``edge_colors``.
    _by_endpoints: Optional[Dict[FrozenSet[Hashable], int]] = field(
        default=None, repr=False, compare=False
    )

    def color_of(self, u: Hashable, v: Hashable) -> int:
        """The color of the edge ``{u, v}`` (either endpoint order)."""
        if self._by_endpoints is None:
            self._by_endpoints = {
                frozenset(edge): color for edge, color in self.edge_colors.items()
            }
        return self._by_endpoints[frozenset((u, v))]

    @property
    def colors_used(self) -> int:
        """Number of distinct colors actually used."""
        if self.color_column is None:
            return len(set(self.edge_colors.values()))
        return len(sorted_distinct(self.color_column))


def line_graph_max_degree(network: FastNetwork) -> int:
    """``Delta(L(G))`` from ``G``'s CSR: the largest ``d(u) + d(v) - 2`` over edges.

    ``2 Delta - 2`` is only an upper bound; on an irregular graph the two
    largest degrees need not be adjacent.
    """
    fast = fast_view(network)
    if not len(fast.indices):
        return 0
    degrees = fast.degrees
    return int((degrees[fast.rows_np] + degrees[fast.indices]).max()) - 2


def plan_edge_coloring(
    network: FastNetwork,
    quality: str = "linear",
    epsilon: float = 0.75,
    route: str = "direct",
) -> LegalColorPlan:
    """The Legal-Color plan :func:`color_edges` runs on ``L(G)``, without building it.

    Its ``palette`` is the palette the run reports: the direct route plans
    with the Corollary 5.4 defect, the simulation route with Lemma 2.1(3).
    """
    if route not in ("direct", "simulation"):
        raise InvalidParameterError(f"unknown route {route!r}")
    delta_line = line_graph_max_degree(network)
    return plan_legal_coloring(
        params_for_quality(quality, delta_line, LINE_GRAPH_INDEPENDENCE, epsilon),
        delta_line,
        LINE_GRAPH_INDEPENDENCE,
        edge_mode=(route == "direct"),
    )


def color_edges_via_line_graph(
    network: FastNetwork,
    route: str,
    color_line_graph: Callable[[FastNetwork], LegalColoringResult],
) -> EdgeColoringResult:
    """Edge-color ``network`` by vertex-coloring ``L(G)``, charged on ``G``.

    The one place an ``L(G)`` run becomes an edge coloring of ``G``: it
    builds ``L(G)`` from ``G``'s CSR, runs ``color_line_graph`` on it and
    charges the route.  The ``"direct"`` route pays Theorem 5.5: both
    endpoints keep an edge's state, so rounds stay as measured, but the
    ``psi``-selection exchange ships the ``p`` counters ``N_{e,u}(1..p)`` in
    one message of at least ``p`` words.  Every other route (the Theorem
    5.3 simulation and the baselines) pays Lemma 5.2
    (:func:`~repro.local_model.line_graph_sim.apply_lemma_5_2_accounting`).
    """
    line_fast = build_line_graph_fast(network)
    vertex_result = color_line_graph(line_fast)
    raw = vertex_result.metrics
    if route == "direct":
        metrics = RunMetrics()
        for phase in raw.phases:
            if phase.name.startswith("psi-selection"):
                words = max(phase.max_message_words, vertex_result.parameters.p)
                phase = replace(phase, max_message_words=words)
            metrics.add_phase(phase)
        metrics.phase_seconds.update(raw.phase_seconds)
    else:
        metrics = apply_lemma_5_2_accounting(network, raw)
    return EdgeColoringResult(
        edge_colors=vertex_result.colors,
        palette=vertex_result.palette,
        metrics=metrics,
        route=route,
        levels=vertex_result.levels,
        parameters=vertex_result.parameters,
        line_graph_max_degree=line_fast.max_degree,
        color_column=vertex_result.color_column,
    )


def color_edges(
    network: FastNetwork,
    quality: str = "linear",
    epsilon: float = 0.75,
    route: str = "direct",
    engine: Optional[str] = None,
) -> EdgeColoringResult:
    """Distributed edge coloring of a general graph (Theorems 5.3 / 5.5).

    The ``quality`` preset is built from the measured ``Delta(L(G))``, and
    Legal-Color runs on ``L(G)`` from that degree (a matching gets palette
    1).  To run another preset, pass a vertex coloring of ``L(G)`` to
    :func:`color_edges_via_line_graph`, e.g.
    ``lambda line: run_legal_coloring(line, params, c=2, edge_mode=True)``
    on the direct route.

    Parameters
    ----------
    network:
        The input graph ``G`` (any graph; no independence assumption needed).
    quality:
        ``"linear"`` -- ``O(Delta)`` colors in ``O(Delta^eps) + log* n`` time;
        ``"superlinear"`` -- ``O(Delta^{1+eta})`` colors in
        ``O(log Delta) + log* n`` time;
        ``"subpolynomial"`` -- ``Delta^{1+o(1)}`` colors in
        ``O((log Delta)^{1+eta}) + log* n`` time.
    epsilon:
        Exponent knob for the ``"linear"`` / ``"subpolynomial"`` presets.
    route:
        ``"direct"`` (Theorem 5.5, small messages) or ``"simulation"``
        (Theorem 5.3, Lemma 5.2 simulation with ``O(Delta log n)`` messages).
    engine:
        Execution engine (``"reference"`` / ``"vectorized"``; ``None`` is
        ``"vectorized"``, see :mod:`repro.local_model.engine`).

    Returns
    -------
    EdgeColoringResult
        A legal edge coloring of ``G`` with the corresponding metrics.
    """
    if route not in ("direct", "simulation"):
        raise InvalidParameterError(f"unknown route {route!r}")

    def legal_color(line_fast: FastNetwork) -> LegalColoringResult:
        return run_legal_coloring(
            line_fast,
            params_for_quality(
                quality, line_fast.max_degree, LINE_GRAPH_INDEPENDENCE, epsilon
            ),
            c=LINE_GRAPH_INDEPENDENCE,
            edge_mode=(route == "direct"),
            engine=engine,
        )

    return color_edges_via_line_graph(network, route, legal_color)
