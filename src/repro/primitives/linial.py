"""Linial's ``O(Delta^2)``-coloring in ``log* n`` rounds (Lemma 2.1(1)).

The algorithm iteratively shrinks a legal coloring.  In one round, every
vertex learns its neighbors' current colors and recolors itself as follows.
A color ``c`` from a palette of size ``m`` is interpreted as a polynomial of
degree ``t`` over ``GF(q)`` (its base-``q`` digit expansion), where the prime
``q`` is chosen so that ``q > Delta * t``.  Two distinct polynomials of degree
``t`` agree on at most ``t`` points, so among the ``q`` evaluation points
there is at least one point ``a`` at which the vertex's polynomial differs
from the polynomials of *all* of its (at most ``Delta``) neighbors.  The new
color is the pair ``(a, g_v(a))``, drawn from a palette of ``q^2`` colors, and
the new coloring is again legal.  Iterating shrinks the palette from ``n`` to
``O(Delta^2)`` within ``O(log* n)`` rounds.

A round is Kuhn's defective polynomial step
(:mod:`repro.primitives.kuhn_defective`) with a collision-free point
guaranteed: both move to the first point with the fewest collisions, which
``q > Delta * t`` makes zero.  Both phases run
:func:`~repro.primitives.numbers.defective_step_color` per node and the
``defective_step`` kernel per round.

This is the classical cover-free-family construction of Linial [21] (in the
form popularized by the Erdos-Frankl-Furedi polynomial sets); the paper uses
it as a black box, and so do we.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import SILENT, BroadcastPhase, LocalView
from repro.local_model.vectorized import VectorContext, check_color_range
from repro.primitives.numbers import defective_step_color, next_prime, num_base_q_digits

#: One Linial recoloring step: (prime q, number of digits, palette before the step).
LinialStep = Tuple[int, int, int]


def _choose_prime_for_step(palette: int, degree_bound: int) -> Tuple[int, int]:
    """The smallest prime ``q`` with ``q > degree_bound * t`` for the induced degree ``t``.

    ``t = (number of base-q digits of the palette) - 1`` is the polynomial
    degree, which itself depends on ``q``; the loop below converges because
    increasing ``q`` never increases ``t``.
    """
    # Validity ("q > degree_bound * t") is monotone in q because increasing q
    # never increases the digit count, so scanning primes upward finds the
    # smallest valid prime (and hence the smallest q^2 output palette).
    q = next_prime(max(2, degree_bound + 1))
    while True:
        digits = num_base_q_digits(palette, q)
        required = max(2, degree_bound + 1, degree_bound * (digits - 1) + 1)
        if q >= required:
            return q, digits
        q = next_prime(q + 1)


def linial_schedule(initial_palette: int, degree_bound: int) -> Tuple[List[LinialStep], int]:
    """The deterministic recoloring schedule and the final palette size.

    Every vertex computes this schedule locally from the globally known
    quantities ``n`` (or, more generally, the initial palette size) and
    ``Delta``, so all vertices agree on the number of rounds -- the standard
    way termination is synchronized in the LOCAL model.

    Returns
    -------
    (schedule, final_palette):
        ``schedule`` lists one ``(q, digits, palette_before)`` entry per
        recoloring round; ``final_palette`` is the palette size after the last
        round (``O(degree_bound^2)``).
    """
    if initial_palette < 1:
        raise InvalidParameterError("initial_palette must be at least 1")
    if degree_bound < 0:
        raise InvalidParameterError("degree_bound must be non-negative")
    if degree_bound == 0:
        return [], 1

    schedule: List[LinialStep] = []
    palette = initial_palette
    while True:
        q, digits = _choose_prime_for_step(palette, degree_bound)
        if q * q >= palette:
            break
        schedule.append((q, digits, palette))
        palette = q * q
    return schedule, palette


def linial_final_palette(initial_palette: int, degree_bound: int) -> int:
    """The palette size Linial's algorithm ends with (``O(degree_bound^2)``)."""
    return linial_schedule(initial_palette, degree_bound)[1]


class LinialColoringPhase(BroadcastPhase):
    """Distributed Linial coloring as a synchronous phase.

    Parameters
    ----------
    degree_bound:
        An upper bound ``Delta`` on the maximum degree of the (sub)graph the
        phase runs on.  Known to all vertices (LOCAL model assumption).
    initial_palette:
        The size of the initial legal coloring's palette.  When ``input_key``
        is ``None`` the initial coloring is the unique-identifier assignment,
        so the initial palette is ``n``.
    input_key:
        Optional state key holding an existing legal coloring (1-based).  Used
        by the Section 4.2 improvement, which feeds the auxiliary ``O(Delta^2)``
        coloring ``rho`` back into Linial's algorithm with a smaller degree
        bound to obtain an ``O(lambda^2)``-coloring in ``O(log* Delta)`` time.
    output_key:
        State key the final color is written to.
    """

    def __init__(
        self,
        degree_bound: int,
        initial_palette: int,
        input_key: Optional[str] = None,
        output_key: str = "linial_color",
    ) -> None:
        self.name = "linial"
        self.degree_bound = degree_bound
        self.initial_palette = initial_palette
        self.input_key = input_key
        self.output_key = output_key
        self.schedule, self.final_palette = linial_schedule(initial_palette, degree_bound)

    # ------------------------------------------------------------------ #

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        if self.input_key is None:
            color = view.unique_id
        else:
            color = int(state[self.input_key])
        if not 1 <= color <= self.initial_palette:
            raise InvalidParameterError(
                f"initial color {color} outside palette 1..{self.initial_palette}"
            )
        state["_linial_current"] = color

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        if not self.schedule or self.degree_bound == 0:
            return SILENT
        return state["_linial_current"]

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        if self.degree_bound == 0:
            state[self.output_key] = 1
            return True
        if not self.schedule:
            state[self.output_key] = state["_linial_current"]
            return True

        q, digits, _palette_before = self.schedule[round_index - 1]
        state["_linial_current"] = defective_step_color(
            state["_linial_current"], inbox.values(), q, digits
        )

        if round_index == len(self.schedule):
            state[self.output_key] = state["_linial_current"]
            return True
        return False

    def max_rounds(self, n: int, max_degree: int) -> int:
        return len(self.schedule) + 2

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        Each round is one ``ctx.kernels.defective_step`` call.
        """
        if self.input_key is None:
            colors = ctx.unique_ids().copy()
        else:
            colors = ctx.column(self.input_key)
        check_color_range(
            colors,
            self.initial_palette,
            "initial color {color} outside palette 1..{palette}",
        )

        if self.degree_bound == 0:
            ctx.charge_silent_round()
            ctx.write_column("_linial_current", colors)
            ctx.write_value(self.output_key, 1)
            return
        if not self.schedule:
            ctx.charge_silent_round()
            ctx.write_column("_linial_current", colors)
            ctx.write_column(self.output_key, colors)
            return

        fast = ctx.fast
        for q, digits, _palette_before in self.schedule:
            out = np.empty(fast.num_nodes, dtype=np.int64)
            ctx.kernels.defective_step(fast.indptr, fast.indices, colors, q, digits, out)
            colors = out
        ctx.charge_uniform_broadcast(len(self.schedule))
        ctx.write_column("_linial_current", colors)
        ctx.write_column(self.output_key, colors)
