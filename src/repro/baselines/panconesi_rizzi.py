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
be compared against both the measured and the idealized baseline.  This
substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines._line_pipeline import run_line_graph_delta_plus_one
from repro.core.edge_coloring import EdgeColoringResult
from repro.local_model.fast_network import FastNetwork


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
    return run_line_graph_delta_plus_one(
        network,
        output_key="_pr_color",
        use_kuhn_wattenhofer=True,
        route="baseline-pr",
        engine=engine,
    )
