"""Defective vertex coloring with ``defect * colors = O(Delta)`` *per factor*.

This module implements the black box of Lemma 2.1(3) / Theorem 4.7: given a
degree bound ``Delta`` and a defect target ``d``, compute a ``d``-defective
coloring with ``O((Delta / d)^2)`` colors in ``O(log* n)`` rounds (or
``O(log* m)`` rounds when an auxiliary legal ``m``-coloring is already
available, which is how Section 4.2 removes the repeated ``log* n`` terms).

Construction.  Start from a legal coloring (unique identifiers or the
auxiliary coloring), shrink it with Linial's algorithm to ``O(Delta^2)``
colors, and then apply one or two *defective polynomial steps*: a color from
a palette of size ``m`` is read as a polynomial of degree ``t`` over
``GF(q)``; instead of requiring a collision-free evaluation point (Linial),
the vertex picks the point minimizing the number of colliding neighbors.
Averaging over the ``q`` points, the best point has at most
``floor(Delta * t / q)`` collisions with neighbors holding *different*
colors, so choosing ``q >= Delta * t / d`` bounds the newly introduced defect
by ``d`` while shrinking the palette to ``q^2``.  Collisions with neighbors
holding the *same* color are unavoidable (identical polynomials); they are
bounded by the defect of the input coloring, which is why the overall defect
budget is split geometrically across the steps.

Linial's round is this step with a collision-free point guaranteed (its
``q > Delta * t`` makes the fewest collisions zero), so both phases run one
rule: :func:`~repro.primitives.numbers.defective_step_color` per node and
the ``defective_step`` kernel on the array engine.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import BroadcastPhase, LocalView, PhasePipeline, SynchronousPhase
from repro.local_model.vectorized import VectorContext, check_color_range
from repro.primitives.linial import LinialColoringPhase, linial_final_palette
from repro.primitives.numbers import (
    ceil_div,
    defective_step_color,
    next_prime,
    num_base_q_digits,
)


def defective_step_parameters(
    palette: int, degree_bound: int, defect_budget: int
) -> Tuple[int, int]:
    """The prime ``q`` and digit count for one defective polynomial step.

    Guarantees ``floor(degree_bound * t / q) <= defect_budget`` where
    ``t = digits - 1``; the step's output palette is ``q^2``.
    """
    if palette < 1:
        raise InvalidParameterError("palette must be at least 1")
    if degree_bound < 0:
        raise InvalidParameterError("degree_bound must be non-negative")
    if defect_budget < 1:
        raise InvalidParameterError("defect_budget must be at least 1")

    # The validity condition "q >= degree_bound * (digits - 1) / defect_budget"
    # is monotone in q (larger q never increases the digit count), so the
    # smallest valid prime is found by scanning primes upward.
    q = 2
    while True:
        digits = num_base_q_digits(palette, q)
        required = max(2, ceil_div(degree_bound * (digits - 1), defect_budget))
        if q >= required:
            return q, digits
        q = next_prime(q + 1)


class DefectiveStepPhase(BroadcastPhase):
    """One defective polynomial recoloring step (a single round).

    The vertex broadcasts its current color, reads its neighbors' colors, and
    moves to the evaluation point with the fewest collisions among neighbors
    holding *different* colors.  The new color is the pair
    ``(point, value)`` encoded into ``{1, ..., q^2}``.
    """

    def __init__(
        self,
        palette: int,
        degree_bound: int,
        defect_budget: int,
        input_key: str,
        output_key: str,
    ) -> None:
        self.name = f"defective-step[d<={defect_budget}]"
        self.palette = palette
        self.degree_bound = degree_bound
        self.defect_budget = defect_budget
        self.input_key = input_key
        self.output_key = output_key
        self.q, self.digits = defective_step_parameters(palette, degree_bound, defect_budget)
        self.output_palette = self.q * self.q

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        color = int(state[self.input_key])
        if not 1 <= color <= self.palette:
            raise InvalidParameterError(
                f"color {color} outside declared palette 1..{self.palette}"
            )

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        return state[self.input_key]

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        state[self.output_key] = defective_step_color(
            state[self.input_key], inbox.values(), self.q, self.digits
        )
        return True

    def max_rounds(self, n: int, max_degree: int) -> int:
        return 2

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        The step is one ``ctx.kernels.defective_step`` call.
        """
        colors = ctx.column(self.input_key)
        check_color_range(
            colors, self.palette, "color {color} outside declared palette 1..{palette}"
        )
        fast = ctx.fast
        recolored = np.empty(fast.num_nodes, dtype=np.int64)
        ctx.kernels.defective_step(
            fast.indptr, fast.indices, colors, self.q, self.digits, recolored
        )
        ctx.charge_uniform_broadcast(1)
        ctx.write_column(self.output_key, recolored)


def _split_defect_budget(target_defect: int) -> List[int]:
    """Split the defect target across (at most two) polynomial steps."""
    if target_defect <= 1:
        return [max(1, target_defect)]
    first = target_defect - target_defect // 2
    second = target_defect // 2
    return [budget for budget in (first, second) if budget >= 1]


def defective_coloring_pipeline(
    n: int,
    degree_bound: int,
    target_defect: int,
    initial_palette: Optional[int] = None,
    input_key: Optional[str] = None,
    output_key: str = "defective_color",
) -> Tuple[PhasePipeline, int]:
    """Build the Lemma 2.1(3) pipeline: a ``target_defect``-defective coloring.

    Parameters
    ----------
    n:
        Number of vertices (the initial identifier palette when no auxiliary
        coloring is supplied).
    degree_bound:
        Upper bound on the maximum degree of the (sub)graph being colored.
    target_defect:
        The allowed defect ``d``.  ``d <= 0`` requests a *legal* coloring, in
        which case only Linial's algorithm is applied and the palette stays
        ``O(degree_bound^2)``.
    initial_palette, input_key:
        When given, the pipeline starts from the existing legal coloring in
        ``state[input_key]`` (palette ``initial_palette``) instead of the
        unique identifiers -- this is the Section 4.2 trick that replaces the
        repeated ``log* n`` cost by ``log* Delta``.
    output_key:
        Where the final color is stored.

    Returns
    -------
    (pipeline, palette):
        The pipeline and the size of the palette of the produced coloring,
        which is ``O((degree_bound / max(target_defect, 1))^2)``.
    """
    if initial_palette is None:
        initial_palette = n

    # Pick the defective steps first, so the last phase writes output_key.
    palette = linial_final_palette(initial_palette, degree_bound)
    steps: List[Tuple[int, int]] = []  # (input palette, defect budget)
    if target_defect > 0 and degree_bound > 0:
        for budget in _split_defect_budget(target_defect):
            q, _digits = defective_step_parameters(palette, degree_bound, budget)
            if q * q < palette:  # A step that would not shrink the palette is skipped.
                steps.append((palette, budget))
                palette = q * q

    keys = ["_kuhn_base"] + [f"_kuhn_step_{index}" for index in range(len(steps))]
    keys[-1] = output_key
    phases: List[SynchronousPhase] = [
        LinialColoringPhase(
            degree_bound=degree_bound,
            initial_palette=initial_palette,
            input_key=input_key,
            output_key=keys[0],
        )
    ]
    for (step_palette, budget), source, target in zip(steps, keys, keys[1:]):
        phases.append(
            DefectiveStepPhase(
                palette=step_palette,
                degree_bound=degree_bound,
                defect_budget=budget,
                input_key=source,
                output_key=target,
            )
        )
    return PhasePipeline(phases, name="kuhn-defective"), palette
