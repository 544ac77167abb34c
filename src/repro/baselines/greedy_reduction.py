"""The folklore class-by-class edge-coloring baseline (``O(Delta^2)`` rounds).

Vertex-color the line graph with Linial's algorithm and then remove one color
class per round until ``Delta(L(G)) + 1`` colors remain.  This is the
simplest correct deterministic edge-coloring algorithm; it is dominated by
the Panconesi-Rizzi-style baseline and by the paper's algorithms, and serves
as a sanity yardstick in the benchmark reports.
"""

from __future__ import annotations

from typing import Optional

from repro.core.edge_coloring import EdgeColoringResult, color_edges_via_line_graph
from repro.core.legal_coloring import LegalColoringResult, run_coloring_phases
from repro.local_model.fast_network import FastNetwork
from repro.primitives.color_reduction import delta_plus_one_pipeline


def greedy_reduction_edge_coloring(
    network: FastNetwork, engine: Optional[str] = None
) -> EdgeColoringResult:
    """A legal ``(2 Delta - 1)``-edge-coloring via one-class-per-round reduction.

    Takes a ``FastNetwork``; ``Delta(L(G))`` comes from the CSR
    degree column of the array-built line graph, and the result carries
    ``color_column`` over the canonical edges in pair-key order.
    """

    def reduce(line_fast: FastNetwork) -> LegalColoringResult:
        pipeline, palette = delta_plus_one_pipeline(
            n=line_fast.num_nodes,
            degree_bound=line_fast.max_degree,
            output_key="_greedy_color",
            use_kuhn_wattenhofer=False,
        )
        return run_coloring_phases(line_fast, pipeline, "_greedy_color", palette, engine)

    return color_edges_via_line_graph(network, "baseline-greedy-reduction", reduce)
