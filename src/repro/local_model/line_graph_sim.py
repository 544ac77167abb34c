"""Simulation of line-graph algorithms on the original network (Lemma 5.2).

The paper's edge-coloring algorithms are obtained by running vertex-coloring
algorithms on the line graph ``L(G)``.  In the distributed setting the input
network is ``G``, not ``L(G)``, so Lemma 5.2 shows how ``G`` simulates an
algorithm for ``L(G)``:

* every edge ``e = (u, v)`` of ``G`` is simulated by its endpoint with the
  smaller identifier, and the vertex of ``L(G)`` corresponding to ``e`` gets
  the identifier ``(Id(u), Id(v))``;
* a message between two adjacent ``L(G)``-vertices travels over at most two
  edges of ``G`` (through the shared endpoint), so every round of the
  ``L(G)``-algorithm costs at most two rounds of ``G``, plus ``O(1)`` rounds
  to set up the edge identifiers;
* a vertex of ``G`` simulates up to ``deg(v)`` vertices of ``L(G)``, so it may
  need to forward up to ``Delta`` messages over one edge in one round --
  which is why this route needs messages of size ``O(Delta log n)``.

This module executes the ``L(G)``-algorithm on an explicitly derived
line-graph view (built directly from ``G``'s CSR arrays by
:func:`~repro.local_model.line_csr.build_line_graph_fast`, which yields
exactly the outputs the simulation would produce) and then applies the
Lemma 5.2 accounting to the metrics: rounds become ``2 T + O(1)`` and the
per-edge bandwidth is multiplied by the simulation load factor.  The
accounting itself -- :func:`apply_lemma_5_2_accounting` -- is shared with
:func:`repro.core.edge_coloring.color_edges`'s simulation route, which
charges the identical adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple, Union

from repro.local_model.algorithm import PhasePipeline, SynchronousPhase
from repro.local_model.fast_network import FastNetwork
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.scheduler import PhaseResult

#: Additive setup cost of Lemma 5.2 (computing the unique edge identifiers).
SIMULATION_SETUP_ROUNDS = 1


@dataclass
class LineGraphSimulationResult:
    """Result of simulating an ``L(G)``-algorithm on ``G``.

    Attributes
    ----------
    edge_states:
        Final state of every simulated ``L(G)``-vertex, keyed by the canonical
        edge ``(u, v)`` of ``G`` it corresponds to.
    metrics:
        Metrics *after* the Lemma 5.2 adjustment (rounds ``2T + O(1)``,
        message sizes scaled by the simulation load).
    line_graph_metrics:
        The raw metrics of the algorithm as executed on ``L(G)`` itself,
        before adjustment (useful for comparing the two accountings).
    line_fast:
        The CSR line-graph view the algorithm ran on.
    """

    edge_states: Dict[Tuple[Hashable, Hashable], Dict[str, Any]]
    metrics: RunMetrics
    line_graph_metrics: RunMetrics
    line_fast: FastNetwork


def simulate_on_line_graph(
    network: FastNetwork,
    algorithm: Union[SynchronousPhase, PhasePipeline],
    initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
    engine: Optional[str] = None,
) -> LineGraphSimulationResult:
    """Run ``algorithm`` on ``L(G)`` and account its cost on ``G`` per Lemma 5.2.

    Parameters
    ----------
    network:
        The original network ``G``.
    algorithm:
        A phase or pipeline written for vertex coloring of ``L(G)``.
    initial_states:
        Optional per-``L(G)``-vertex initial states, keyed by canonical edge.

    Returns
    -------
    LineGraphSimulationResult
        The per-edge outputs plus both the raw and the adjusted metrics.
    """
    from repro.local_model.engine import make_scheduler
    from repro.local_model.line_csr import build_line_graph_fast

    line_fast = build_line_graph_fast(network)
    scheduler = make_scheduler(line_fast, engine=engine)
    result: PhaseResult = scheduler.run(algorithm, initial_states=initial_states)

    adjusted = apply_lemma_5_2_accounting(network, result.metrics)
    return LineGraphSimulationResult(
        edge_states=dict(result.states),
        metrics=adjusted,
        line_graph_metrics=result.metrics,
        line_fast=line_fast,
    )


def apply_lemma_5_2_accounting(network, raw: RunMetrics) -> RunMetrics:
    """Convert metrics measured on ``L(G)`` into their cost on ``G``.

    Every ``L(G)`` round costs at most two ``G`` rounds (plus the
    :data:`SIMULATION_SETUP_ROUNDS` identifier setup).  A vertex ``v`` of
    ``G`` simulates up to ``deg(v)`` line-graph vertices, so the words it must
    push over a single edge of ``G`` in one round grow by a factor of at most
    ``Delta`` -- this is the ``O(Delta log n)`` message size of Theorem 5.3.
    ``network`` is ``G``.
    """
    load_factor = max(1, network.max_degree)
    adjusted = RunMetrics()
    adjusted.add_phase(
        PhaseMetrics(name="lemma-5.2-setup", rounds=SIMULATION_SETUP_ROUNDS)
    )
    for phase in raw.phases:
        adjusted.add_phase(
            PhaseMetrics(
                name=f"sim:{phase.name}",
                rounds=2 * phase.rounds,
                messages=phase.messages,
                total_words=phase.total_words,
                max_message_words=phase.max_message_words * load_factor,
            )
        )
    # The adjustment must not drop the measured wall-time breakdown.
    for name, seconds in raw.phase_seconds.items():
        adjusted.add_phase_seconds(name, seconds)
    return adjusted
