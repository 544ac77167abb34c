"""The fitted round multipliers behind the portfolio's budget search.

Under a caller's ``budget`` the portfolio keeps the best-palette Theorem 4.8
preset whose predicted rounds fit.  The prediction is one fitted multiplier
per preset on top of its analytic round shape (``Delta^eps + log* n``,
``log Delta + log* n``, ``(log Delta)^{1+eta} + log* n``).  The multipliers
were measured once, on the direct-route Legal-Color runs of ``L(G)`` for a
600-node 8-regular graph.  Summing the phases' ``max_rounds`` caps over the
Legal-Color plan instead would be far too loose to replace them.

The route is not a cost decision here: ``color_edges`` takes the route with
the smaller planned palette (:func:`repro.core.plan_edge_coloring`).  The
engine is not one either: every engine produces the same coloring, and the
portfolio takes ``"vectorized"``
(:data:`repro.local_model.engine.DEFAULT_ENGINE`).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.exceptions import InvalidParameterError
from repro.primitives.numbers import log_star

#: Quality presets ordered from best palette guarantee (fewest colors,
#: slowest) to fastest (most colors).  The budget search walks this order
#: and keeps the first preset whose predicted rounds fit.
QUALITY_ORDER = ("linear", "subpolynomial", "superlinear")

#: Measured rounds over :func:`quality_round_shape`, per preset.
ROUND_MULTIPLIERS = {"linear": 15.238, "subpolynomial": 6.877, "superlinear": 13.515}


def quality_round_shape(quality: str, delta: int, n: int, epsilon: float = 0.75) -> float:
    """The analytic Theorem 4.8 round shape of ``quality`` (unit coefficient)."""
    delta = max(2, delta)
    if quality == "linear":
        return float(delta**epsilon + log_star(n))
    if quality == "superlinear":
        return float(math.log2(delta) + log_star(n))
    if quality == "subpolynomial":
        return float(math.log2(delta) ** (1.0 + epsilon) + log_star(n))
    raise InvalidParameterError(f"unknown quality {quality!r}")


class CostModel:
    """The budget search over :data:`ROUND_MULTIPLIERS` (see the module docstring)."""

    @classmethod
    def default(cls) -> "CostModel":
        return cls()

    def predict_rounds(
        self, quality: str, delta: int, n: int, epsilon: float = 0.75
    ) -> float:
        shape = quality_round_shape(quality, delta, n, epsilon=epsilon)
        return shape * ROUND_MULTIPLIERS[quality]

    def choose_quality(
        self,
        delta: int,
        n: int,
        budget: Optional[float],
        epsilon: float = 0.75,
    ) -> str:
        """The best-palette preset whose predicted rounds fit ``budget``.

        With no budget the answer is always ``"linear"`` (the paper's
        ``O(Delta)``-colors guarantee).  An infeasible budget degrades to
        ``"superlinear"`` — the fastest preset — rather than failing.
        """
        if budget is None:
            return "linear"
        for quality in QUALITY_ORDER:
            if self.predict_rounds(quality, delta, n, epsilon=epsilon) <= budget:
                return quality
        return "superlinear"
