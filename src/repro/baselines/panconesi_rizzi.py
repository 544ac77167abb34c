"""The deterministic ``(2 Delta - 1)``-edge-coloring baseline ([24] in the paper).

Panconesi and Rizzi obtain a ``(2 Delta - 1)``-edge-coloring in
``O(Delta) + log* n`` rounds.  Our reproduction of the baseline keeps the
color guarantee exactly and the round growth *linear-in-``Delta``-times-log*:
it vertex-colors the line graph ``L(G)`` with Linial's algorithm
(``O(Delta^2)`` colors, ``log* n`` rounds) and then reduces the palette to
``Delta(L(G)) + 1 <= 2 Delta - 1`` with the Kuhn-Wattenhofer block reduction
(``O(Delta log Delta)`` rounds).  The Lemma 5.2 simulation accounting is then
applied so the reported cost is the cost on ``G``.

The benchmark harnesses additionally plot the *analytic* ``O(Delta) + log* n``
curve of the original algorithm (see
:func:`repro.analysis.complexity.rounds_panconesi_rizzi`), so Table 1 / 2 can
be compared against both the measured and the idealized baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.core.edge_coloring import EdgeColoringResult, color_edges_via_line_graph
from repro.core.legal_coloring import LegalColoringResult, run_coloring_phases
from repro.local_model.fast_network import FastNetwork
from repro.primitives.color_reduction import delta_plus_one_pipeline


def panconesi_rizzi_edge_coloring(
    network: FastNetwork, engine: Optional[str] = None
) -> EdgeColoringResult:
    """A legal ``(2 Delta - 1)``-edge-coloring of ``network``.

    Takes a :class:`~repro.local_model.fast_network.FastNetwork` and returns an
    :class:`~repro.core.edge_coloring.EdgeColoringResult` whose ``route`` is
    ``"baseline-pr"`` and whose ``color_column`` covers the canonical edges
    in pair-key order; the palette bound is
    ``Delta(L(G)) + 1 <= 2 Delta(G) - 1``.
    """

    def reduce(line_fast: FastNetwork) -> LegalColoringResult:
        pipeline, palette = delta_plus_one_pipeline(
            n=line_fast.num_nodes,
            degree_bound=line_fast.max_degree,
            output_key="_pr_color",
            use_kuhn_wattenhofer=True,
        )
        return run_coloring_phases(line_fast, pipeline, "_pr_color", palette, engine)

    return color_edges_via_line_graph(network, "baseline-pr", reduce)
