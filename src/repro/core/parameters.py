"""Parameter presets for Procedure Legal-Color.

The paper obtains its different trade-offs (Theorems 4.5, 4.6, 4.8 and the
edge-coloring counterparts in Theorem 5.5) by invoking the *same* Procedure
Legal-Color with different settings of the parameters ``b``, ``p`` and the
termination threshold ``lambda``:

* **Linear number of colors** (Theorem 4.5 / 4.8(1) / 5.5(1)):
  ``b = ceil(Delta^{eps/6})``, ``p = ceil(Delta^{eps/3})``,
  ``lambda = ceil(Delta^eps)`` gives an ``O(Delta)``-coloring in
  ``O(Delta^eps) + log* n`` rounds; the recursion depth is a constant
  ``O(1/eps)``.
* **Few rounds** (Theorem 4.6 / 4.8(2) / 5.5(2)): constant ``b``, ``p`` and
  ``lambda`` give an ``O(Delta^{1+eta})``-coloring in ``O(log Delta)``
  recursion levels, each costing ``O(1)`` (plus the additive ``log*`` term).
* **Sub-polynomial rounds** (Theorem 4.8(3) / 5.5(3)):
  ``lambda = ceil(log^eta Delta)`` interpolates between the two.

For finite ``Delta`` the asymptotic choices need clamping (for example the
paper requires ``p > 4c`` and ``2c < lambda``); the presets below perform that
clamping, record the values actually used, and expose the implied exponent of
the color bound so the benchmark harnesses can report measured-vs-predicted
palette sizes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.exceptions import InvalidParameterError


def independence_bound(c) -> int:
    """The neighborhood-independence bound ``c`` as a Python ``int`` >= 1.

    The same rule as the kernel thread count: integers (numpy ones included)
    pass through :func:`operator.index`; bools, floats (even integral ones)
    and anything below 1 raise :class:`InvalidParameterError`.
    """
    try:
        value = operator.index(c)
    except TypeError:
        value = 0
    if value < 1 or isinstance(c, bool):
        raise InvalidParameterError(f"c must be an integer >= 1, got {c!r}")
    return value


@dataclass(frozen=True)
class LegalColorParameters:
    """A concrete parameter choice for Procedure Legal-Color.

    Attributes
    ----------
    b, p:
        The parameters of Procedure Defective-Color invoked at every
        recursion level (``b`` controls the slack of the first defective
        coloring, ``p`` is the number of ``psi``-colors / subgraphs).
    threshold:
        The termination threshold ``lambda``: once the degree bound drops to
        ``lambda`` or below, the recursion bottoms out and a
        ``(Lambda + 1)``-coloring is computed directly.
    description:
        Which theorem / regime the preset corresponds to.
    """

    b: int
    p: int
    threshold: int
    description: str

    def validate(self, degree_bound: int, c: int) -> None:
        """Check the constraints Procedure Legal-Color assumes.

        The constraints are only meaningful when the recursion actually runs
        (``degree_bound > threshold``); below the threshold the procedure goes
        straight to the bottom-level coloring and ``b``, ``p`` are unused.
        """
        if self.b < 1 or self.p < 1 or self.threshold < 1:
            raise InvalidParameterError("b, p and the threshold must all be positive")
        if degree_bound <= self.threshold:
            return
        if self.b * self.p > degree_bound:
            raise InvalidParameterError(
                f"b * p = {self.b * self.p} must not exceed the degree bound {degree_bound}"
            )
        if self.p <= 2 * c:
            raise InvalidParameterError(
                f"p = {self.p} is too small for neighborhood independence c = {c}; "
                "the recursion would not shrink the degree bound"
            )


def _clamped_power(delta: int, exponent: float, minimum: int) -> int:
    """``max(minimum, ceil(delta ** exponent))`` (with ``delta >= 1``)."""
    return max(minimum, math.ceil(max(1, delta) ** exponent))


def params_for_linear_colors(
    delta: int, c: int, epsilon: float = 0.75
) -> LegalColorParameters:
    """Theorem 4.5 / 4.8(1) preset: ``O(Delta)`` colors in ``O(Delta^eps) + log* n`` time.

    ``b = Delta^{eps/6}``, ``p = Delta^{eps/3}``, ``lambda = Delta^eps``,
    clamped so that the constraints ``p > 2c`` and ``b * p <= Delta`` hold
    whenever the recursion runs.
    """
    if not 0 < epsilon <= 1:
        raise InvalidParameterError("epsilon must lie in (0, 1]")
    c = independence_bound(c)
    delta = max(1, delta)

    p = _clamped_power(delta, epsilon / 3, minimum=2 * c + 2)
    b = _clamped_power(delta, epsilon / 6, minimum=1)
    threshold = _clamped_power(delta, epsilon, minimum=max(2 * c + 1, p))
    # Keep b * p within the degree bound whenever the recursion will run.
    if delta > threshold:
        while b > 1 and b * p > delta:
            b -= 1
        while p > 2 * c + 2 and b * p > delta:
            p -= 1
    return LegalColorParameters(
        b=b, p=p, threshold=threshold, description=f"linear-colors(eps={epsilon})"
    )


def params_for_few_rounds(
    delta: int, c: int, p: int | None = None, b: int | None = None
) -> LegalColorParameters:
    """Theorem 4.6 / 4.8(2) preset: ``O(Delta^{1+eta})`` colors, ``O(log Delta)`` levels.

    ``b``, ``p`` and ``lambda`` are constants (independent of ``Delta``), so
    each recursion level costs ``O((b p)^2) = O(1)`` rounds and the recursion
    depth is ``O(log Delta)``.  The exponent ``eta`` of the resulting color
    bound is reported by :func:`implied_color_exponent`.
    """
    c = independence_bound(c)
    delta = max(1, delta)
    if p is None:
        p = max(4 * c + 1, 9)
    if b is None:
        b = 2
    threshold = max(2 * c + 1, 2 * p)
    # For small Delta the constant parameters may exceed the degree bound; in
    # that regime the recursion never runs (Delta <= threshold), so no clamping
    # is needed beyond making the threshold at least Delta-independent.
    return LegalColorParameters(
        b=b, p=p, threshold=threshold, description=f"few-rounds(p={p},b={b})"
    )


def params_for_subpolynomial_rounds(
    delta: int, c: int, eta: float = 0.5
) -> LegalColorParameters:
    """Theorem 4.8(3) preset: ``Delta^{1+o(1)}`` colors in ``O((log Delta)^{1+eta})`` time.

    ``lambda = ceil(log^eta Delta)``, ``p = lambda^{1/6}``, ``b = lambda^{1/3}``
    (clamped for small ``Delta``).
    """
    if eta <= 0:
        raise InvalidParameterError("eta must be positive")
    c = independence_bound(c)
    delta = max(2, delta)
    log_delta = max(2.0, math.log2(delta))
    threshold = max(2 * c + 1, math.ceil(log_delta**eta) * (2 * c + 2))
    p = max(2 * c + 2, math.ceil(threshold ** (1.0 / 6.0)))
    b = max(1, math.ceil(threshold ** (1.0 / 3.0)))
    if delta > threshold:
        while b > 1 and b * p > delta:
            b -= 1
        while p > 2 * c + 2 and b * p > delta:
            p -= 1
    return LegalColorParameters(
        b=b, p=p, threshold=threshold, description=f"subpolynomial-rounds(eta={eta})"
    )


def params_for_quality(
    quality: str, delta: int, c: int, epsilon: float = 0.75
) -> LegalColorParameters:
    """The Theorem 4.8 preset ``quality`` (``epsilon`` is its exponent knob)."""
    if quality == "linear":
        return params_for_linear_colors(delta, c, epsilon=epsilon)
    if quality == "superlinear":
        return params_for_few_rounds(delta, c)
    if quality == "subpolynomial":
        return params_for_subpolynomial_rounds(delta, c, eta=epsilon)
    raise InvalidParameterError(f"unknown quality {quality!r}")


def implied_color_exponent(params: LegalColorParameters, c: int) -> float:
    """The exponent ``1 + eta`` such that the preset yields ``O(Delta^{1+eta})`` colors.

    Every recursion level multiplies the palette by ``p`` while dividing the
    degree bound by roughly ``f = p / (c * (1 + 1/b))``, so the palette grows
    like ``Delta^{log p / log f}``.  For the linear-colors preset this
    evaluates to a value close to 1 (the extra factor is a constant); for the
    few-rounds preset it quantifies the ``eta`` of Theorem 4.6 for the actual
    constants used.
    """
    c = independence_bound(c)
    shrink = params.p / (c * (1.0 + 1.0 / params.b))
    if shrink <= 1.0:
        return float("inf")
    return math.log(params.p) / math.log(shrink)
