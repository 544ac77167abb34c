"""The portfolio's normalized result and decision records.

A :class:`PortfolioDecision` says which algorithm, engine, preset and route
ran, and why; a :class:`PortfolioResult` carries the coloring in one shape
for every algorithm.  "Default" in a decision means what a plain ``core``
call would use, with the engine read from
:func:`repro.local_model.engine.default_engine` at the time of asking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.edge_coloring import EdgeColoringResult
from repro.core.legal_coloring import LegalColoringResult
from repro.local_model.engine import default_engine
from repro.local_model.metrics import RunMetrics


@dataclass(frozen=True)
class PortfolioDecision:
    """Everything the portfolio chose for one run, and why.

    ``reasons`` maps each decided knob (``"algorithm"``, ``"engine"``,
    ``"quality"``, ``"route"``) to a one-line explanation; ``predicted``
    holds the numbers the choices were based on: each preset's predicted
    rounds (``rounds_<quality>``, unless the preset is pinned) and, for a
    Legal-Color edge coloring, each route's planned palette
    (``palette_direct`` / ``palette_simulation``); ``overrides`` lists the
    knobs the caller pinned explicitly, which the portfolio passed through
    untouched.  ``kernel_backend`` /
    ``kernel_threads`` record what the vectorized engine's fused kernels
    would run on (the resolved provider name and its thread count) —
    populated whether or not the vectorized engine ran, so a decision record
    always says whether kernels were available.

    ``degraded_from`` is always empty: nothing writes it.  It stays only
    because the ``perfbench/`` harness still reads it, and goes when that
    harness stops reading it (ROADMAP.md, item 1).
    """

    algorithm: str
    engine: str
    quality: Optional[str]
    route: Optional[str]
    reasons: Mapping[str, str] = field(default_factory=dict)
    predicted: Mapping[str, float] = field(default_factory=dict)
    overrides: Tuple[str, ...] = ()
    kernel_backend: Optional[str] = None
    kernel_threads: int = 1
    degraded_from: Tuple[str, ...] = ()

    def is_default(self) -> bool:
        """Whether the chosen (engine, quality, route) is the default triple.

        The defaults are the ones a plain ``core`` call would use: the
        process default engine (:func:`default_engine`), the ``"linear"``
        preset (or no preset, for the preset-free baselines), and the
        ``"direct"`` route (or no route, for vertex colorings).
        """
        return (
            self.engine == default_engine()
            and self.quality in (None, "linear")
            and self.route in (None, "direct")
        )


@dataclass(frozen=True)
class PortfolioResult:
    """One result shape for every algorithm the portfolio can dispatch to.

    ``colors`` maps the colored items — vertices for :func:`color_graph`,
    canonical edges for :func:`color_edges` — to their colors;
    ``color_column`` is the same coloring as an ``int64`` array in the dense
    item order.  ``decision`` records what the portfolio picked.  The
    underlying :class:`LegalColoringResult` / :class:`EdgeColoringResult`
    stays available as ``raw``, and unknown attribute lookups fall through
    to it, so the portfolio result is a drop-in for either.
    """

    colors: Mapping[Hashable, int]
    palette: int
    metrics: RunMetrics
    decision: PortfolioDecision
    color_column: Optional[np.ndarray] = field(repr=False, compare=False, default=None)
    raw: Union[LegalColoringResult, EdgeColoringResult, None] = field(
        repr=False, compare=False, default=None
    )

    @property
    def colors_used(self) -> int:
        if self.color_column is None:
            return len(set(self.colors.values()))
        return int(np.unique(self.color_column).size)

    @property
    def edge_colors(self) -> Mapping[Hashable, int]:
        """Alias of ``colors`` for edge-coloring consumers."""
        return self.colors

    @property
    def kernel_backend(self) -> Optional[str]:
        """The resolved kernel provider (``decision.kernel_backend``)."""
        return self.decision.kernel_backend

    @property
    def kernel_threads(self) -> int:
        """The kernel thread count (``decision.kernel_threads``)."""
        return self.decision.kernel_threads

    def __getattr__(self, name: str):
        raw = object.__getattribute__(self, "raw")
        if raw is not None and not name.startswith("__"):
            return getattr(raw, name)
        raise AttributeError(name)
