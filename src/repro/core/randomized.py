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
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional

import numpy as np

from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.core.legal_coloring import _color_split_classes
from repro.core.parameters import independence_bound, integer_seed
from repro.primitives.numbers import luby_draw

#: The round word of the split's counter-hash draw.  Luby's rounds count up
#: from 0, so a Luby run and a split with the same seed never share a draw.
_SPLIT_DOMAIN = 2**62


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
    class_assignment: Mapping[Hashable, int] = field(default_factory=dict)
    #: The coloring as an int64 array in the dense node order of the
    #: network's FastNetwork view (the array-form verification input).
    color_column: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def randomized_color_vertices(
    network: FastNetwork,
    c: int,
    seed: int = 0,
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
    engine:
        Execution engine (see :mod:`repro.local_model.engine`).

    Every class is colored with Theorem 4.8(2) planned from the classes'
    measured maximum degree, so an edgeless graph gets palette 1.
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
        # is reproducible and engine-independent: one draw per uint64 lane.
        draws = luby_draw(
            seed, fast.unique_ids.astype(np.uint64), _SPLIT_DOMAIN, np.uint64(num_classes)
        )
        labels = draws.astype(np.int64) + 1
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
        class_network = fast.filtered_by_labels(labels)
        # A class's subgraph keeps exactly the same-class edges.
        split_defect = class_network.max_degree
    else:
        num_classes = 1
        labels = np.ones(fast.num_nodes, dtype=np.int64)
        split_defect = delta
        class_network = fast

    # Both columns follow fast.order, so the palette merge is array work.
    color_column, per_class_palette = _color_split_classes(
        class_network, labels, c, engine, metrics
    )
    return RandomizedColoringResult(
        colors=fast.column_mapping(color_column),
        palette=num_classes * per_class_palette,
        metrics=metrics,
        num_classes=num_classes,
        split_defect=split_defect,
        per_class_palette=per_class_palette,
        used_random_split=use_split,
        class_assignment=fast.column_mapping(labels),
        color_column=color_column,
    )

