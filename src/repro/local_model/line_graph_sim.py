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

The library runs the ``L(G)``-algorithm on an explicitly derived line-graph
view (built directly from ``G``'s CSR arrays by
:func:`~repro.local_model.line_csr.build_line_graph_fast`, which yields
exactly the outputs the simulation would produce) and then applies the
Lemma 5.2 accounting of this module to the metrics: rounds become
``2 T + O(1)`` and the per-edge bandwidth is multiplied by the simulation
load factor.  :func:`repro.core.edge_coloring.color_edges_via_line_graph`
charges it to every ``L(G)`` run except the direct route of Theorem 5.5:
the simulation route and the three line-graph baselines.  A custom
``L(G)`` phase is charged the same way: run it on
``build_line_graph_fast(G)`` and pass its metrics here.
"""

from __future__ import annotations

from repro.local_model.metrics import PhaseMetrics, RunMetrics

#: Additive setup cost of Lemma 5.2 (computing the unique edge identifiers).
SIMULATION_SETUP_ROUNDS = 1


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
