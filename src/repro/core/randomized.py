"""The randomized extension (Section 6.1, Theorem 6.1 and Corollary 6.2).

When ``Delta = omega(log n)``, a single round of randomness splits the graph
into ``ceil(Delta / log n)`` classes with maximum intra-class degree
``O(log n)`` with high probability (a Chernoff bound).  Every class is then
colored *deterministically* with the Theorem 4.8(2) algorithm (classes are
vertex-disjoint, so they run in parallel), and the class index becomes the
high-order part of the final color.  The result is an
``O(Delta * min{Delta, log n}^eta)``-coloring in ``O(log log n)``-ish time.

When ``Delta = O(log n)`` the deterministic algorithm alone already achieves
the stated bound, so the random split is skipped (exactly as the paper
argues).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.core.legal_coloring import LegalColoringResult, run_legal_coloring
from repro.core.parameters import (
    LegalColorParameters,
    independence_bound,
    integer_seed,
    params_for_few_rounds,
)


@dataclass
class RandomizedColoringResult:
    """Outcome of the Section 6.1 randomized algorithm.

    Attributes
    ----------
    colors:
        The legal vertex coloring.
    palette:
        The palette bound (number of classes times the per-class palette).
    metrics:
        Measured metrics; the random split itself is charged one round (the
        round in which vertices tell their neighbors which class they chose).
    num_classes:
        Number of classes of the random split (1 when the split is skipped).
    split_defect:
        The *measured* maximum intra-class degree -- the quantity the Chernoff
        bound controls; the tests compare it against ``O(log n)``.
    per_class_palette:
        The palette used inside each class.
    used_random_split:
        Whether the random split was applied (``Delta`` large enough).
    """

    colors: Mapping[Hashable, int]
    palette: int
    metrics: RunMetrics
    num_classes: int
    split_defect: int
    per_class_palette: int
    used_random_split: bool
    class_assignment: Dict[Hashable, int] = field(default_factory=dict)
    #: The coloring as an int64 array in the dense node order of the
    #: network's FastNetwork view (the array-form verification input).
    color_column: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def randomized_color_vertices(
    network: FastNetwork,
    c: int,
    seed: int = 0,
    parameters: Optional[LegalColorParameters] = None,
    engine: Optional[str] = None,
) -> RandomizedColoringResult:
    """Randomized ``O(Delta * min{Delta, log n}^eta)``-coloring (Theorem 6.1).

    Parameters
    ----------
    network:
        A graph with neighborhood independence at most ``c``.
    c:
        The independence bound.
    seed:
        Integer seed of the (per-vertex, identifier-keyed) randomness; runs
        are reproducible given the seed.  Bools and non-integers raise
        :class:`~repro.exceptions.InvalidParameterError`.
    parameters:
        Optional explicit Legal-Color parameters for the per-class coloring.
    """
    c = independence_bound(c)
    seed = integer_seed(seed, "randomized seed")
    fast = fast_view(network)
    n = max(2, fast.num_nodes)
    delta = fast.max_degree
    log_n = max(1, math.ceil(math.log2(n)))

    metrics = RunMetrics()
    use_split = delta > log_n and delta >= 2
    if use_split:
        num_classes = max(2, math.ceil(delta / log_n))
        # Per-vertex randomness is keyed by (seed, unique id), so the split
        # is reproducible and engine-independent; the draw itself is the only
        # per-node Python step left in this driver.
        labels = np.fromiter(
            (
                random.Random(f"{seed}:{unique_id}").randint(1, num_classes)
                for unique_id in fast.unique_ids.tolist()
            ),
            dtype=np.int64,
            count=fast.num_nodes,
        )
        # One round: every vertex announces its class to its neighbors.
        metrics.add_phase(
            PhaseMetrics(
                name="random-split",
                rounds=1,
                messages=2 * fast.num_edges,
                total_words=2 * fast.num_edges,
                max_message_words=1,
            )
        )
        split_defect = _intra_class_defect(fast, labels)
        class_network = fast.filtered_by_labels(labels)
    else:
        num_classes = 1
        labels = np.ones(fast.num_nodes, dtype=np.int64)
        split_defect = delta
        class_network = fast

    class_delta = max(1, class_network.max_degree)
    params = parameters or params_for_few_rounds(class_delta, c)
    per_class: LegalColoringResult = run_legal_coloring(
        class_network, params, c=c, use_auxiliary_coloring=True, engine=engine
    )
    metrics.merge(per_class.metrics)

    per_class_palette = per_class.palette
    # Both columns follow fast.order, so the palette merge is array work.
    color_column = (labels - 1) * per_class_palette + per_class.color_column
    assignment: Dict[Hashable, int] = dict(zip(fast.order, labels.tolist()))
    return RandomizedColoringResult(
        colors=fast.column_mapping(color_column),
        palette=num_classes * per_class_palette,
        metrics=metrics,
        num_classes=num_classes,
        split_defect=split_defect,
        per_class_palette=per_class_palette,
        used_random_split=use_split,
        class_assignment=assignment,
        color_column=color_column,
    )


def _intra_class_defect(fast: FastNetwork, labels: np.ndarray) -> int:
    """The maximum number of same-class neighbors over all vertices."""
    if fast.num_nodes == 0 or len(fast.indices) == 0:
        return 0
    rows, cols = fast.rows_np, fast.indices_np
    same = labels[rows] == labels[cols]
    return int(np.bincount(rows[same], minlength=fast.num_nodes).max())
