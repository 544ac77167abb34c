"""Shared CSR-native driver for the line-graph ``Delta + 1`` baselines.

Panconesi–Rizzi and the greedy class-by-class reduction are the same shape:
derive ``L(G)``, run the :func:`delta_plus_one_pipeline` vertex-coloring
pipeline on it, apply Lemma 5.2 accounting.  This helper runs that shape
array-native — :func:`build_line_graph_fast` for the line graph and
``run_table`` over a :class:`StateTable`, so
the vectorized engine executes the whole pipeline as array rounds — and
returns the normalized result with ``color_column`` in the line graph's
dense edge order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.edge_coloring import EdgeColoringResult
from repro.local_model.engine import make_scheduler
from repro.local_model.line_csr import build_line_graph_fast
from repro.local_model.line_graph_sim import apply_lemma_5_2_accounting
from repro.local_model.state_table import StateTable
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.local_model.fast_network import FastNetwork


def run_line_graph_delta_plus_one(
    network: FastNetwork,
    *,
    output_key: str,
    use_kuhn_wattenhofer: bool,
    route: str,
    engine: Optional[str] = None,
) -> EdgeColoringResult:
    """Edge-color ``network`` by ``Delta(L) + 1``-vertex-coloring ``L(G)``."""
    line_fast = build_line_graph_fast(network)
    delta_line = max(1, line_fast.max_degree)
    pipeline, palette = delta_plus_one_pipeline(
        n=line_fast.num_nodes,
        degree_bound=delta_line,
        output_key=output_key,
        use_kuhn_wattenhofer=use_kuhn_wattenhofer,
    )
    scheduler = make_scheduler(line_fast, engine=engine)
    table, raw_metrics = scheduler.run_table(pipeline, StateTable(line_fast.num_nodes))
    metrics = apply_lemma_5_2_accounting(network, raw_metrics)
    if line_fast.num_nodes:
        column = table.get_ints(output_key)
    else:
        column = np.zeros(0, dtype=np.int64)
    return EdgeColoringResult(
        edge_colors=line_fast.column_mapping(column),
        palette=palette,
        metrics=metrics,
        route=route,
        line_graph_max_degree=line_fast.max_degree,
        color_column=column,
    )
