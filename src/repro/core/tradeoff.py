"""The colors-vs-rounds tradeoff (Section 6.2, Corollary 6.3).

For any monotonic non-decreasing function ``g``, the paper obtains an
``O(Delta^2 / g(Delta))``-coloring in roughly ``O(log g(Delta)) + log* n``
time by (a) computing a ``Delta/p``-defective ``O(p^2)``-coloring with
``p = Delta / q(Delta)`` (the Lemma 2.1(3) black box), which splits the graph
into ``O(p^2)`` subgraphs of maximum degree ``Delta/p = q(Delta)``, and then
(b) coloring every subgraph in parallel with the Theorem 4.8(2) algorithm,
whose running time depends only on the (much smaller) subgraph degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.engine import make_scheduler
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.metrics import RunMetrics
from repro.local_model.state_table import StateTable
from repro.core.legal_coloring import LegalColoringResult, run_legal_coloring
from repro.core.parameters import (
    LegalColorParameters,
    independence_bound,
    params_for_few_rounds,
)
from repro.primitives.kuhn_defective import defective_coloring_pipeline


@dataclass
class TradeoffColoringResult:
    """Outcome of the Corollary 6.3 tradeoff algorithm.

    Attributes
    ----------
    colors:
        The legal vertex coloring.
    palette:
        The palette bound: (number of split classes) x (per-class palette).
    metrics:
        Measured rounds / messages across both stages.
    split_palette:
        Number of classes of the defective split (the ``O(p^2)`` of the paper).
    split_defect_bound:
        The defect the split guarantees (the per-class degree bound).
    per_class_palette:
        The palette used inside each class.
    """

    colors: Mapping[Hashable, int]
    palette: int
    metrics: RunMetrics
    split_palette: int
    split_defect_bound: int
    per_class_palette: int
    #: The coloring as an int64 array in the dense node order of the
    #: network's FastNetwork view (the array-form verification input).
    color_column: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def tradeoff_color_vertices(
    network: FastNetwork,
    c: int,
    g: Callable[[int], float],
    eta: float = 0.5,
    parameters: Optional[LegalColorParameters] = None,
    engine: Optional[str] = None,
) -> TradeoffColoringResult:
    """Corollary 6.3: an ``O(Delta^2 / g(Delta))``-coloring of ``network``.

    Parameters
    ----------
    network:
        A graph with neighborhood independence at most ``c``.
    c:
        The independence bound.
    g:
        The monotone non-decreasing tradeoff function ``g(Delta)``; larger
        values mean fewer colors and more rounds.
    eta:
        The small constant of the paper's derivation (``q = g^{1/(1-eta)}``).
    parameters:
        Optional explicit Legal-Color parameters for the per-class stage.
    """
    c = independence_bound(c)
    if not 0 < eta < 1:
        raise InvalidParameterError("eta must lie in (0, 1)")
    fast = fast_view(network)
    delta = max(1, fast.max_degree)

    g_value = float(g(delta))
    if g_value < 1:
        raise InvalidParameterError("g(Delta) must be at least 1")
    q_value = g_value ** (1.0 / (1.0 - eta))
    p_split = max(1, round(delta / max(1.0, q_value)))
    target_defect = max(1, delta // p_split) if p_split > 1 else delta

    metrics = RunMetrics()
    if p_split > 1:
        pipeline, split_palette = defective_coloring_pipeline(
            n=fast.num_nodes,
            degree_bound=delta,
            target_defect=target_defect,
            output_key="_tradeoff_split",
        )
        table, split_metrics = make_scheduler(fast, engine=engine).run_table(
            pipeline, StateTable(fast.num_nodes)
        )
        metrics.merge(split_metrics)
        split_column = table.get_ints("_tradeoff_split")
        class_network = fast.filtered_by_labels(split_column)
        split_defect_bound = target_defect
    else:
        split_palette = 1
        split_column = np.ones(fast.num_nodes, dtype=np.int64)
        class_network = fast
        split_defect_bound = delta

    class_delta = max(1, class_network.max_degree)
    params = parameters or params_for_few_rounds(class_delta, c)
    per_class: LegalColoringResult = run_legal_coloring(
        class_network, params, c=c, use_auxiliary_coloring=True, engine=engine
    )
    metrics.merge(per_class.metrics)

    per_class_palette = per_class.palette
    # Both columns follow fast.order (class_network shares the parent view's
    # node order), so the Figure 3 palette merge is pure array arithmetic.
    color_column = (split_column - 1) * per_class_palette + per_class.color_column
    return TradeoffColoringResult(
        colors=fast.column_mapping(color_column),
        palette=split_palette * per_class_palette,
        metrics=metrics,
        split_palette=split_palette,
        split_defect_bound=split_defect_bound,
        per_class_palette=per_class_palette,
        color_column=color_column,
    )
