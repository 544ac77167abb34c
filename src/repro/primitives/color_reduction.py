"""Color-reduction phases and the ``(Delta + 1)``-coloring pipeline.

The paper uses, as a black box (Lemma 2.1(2)), an algorithm that computes a
legal ``(Delta + 1)``-vertex-coloring in ``O(Delta) + log* n`` rounds.  That
exact algorithm (Barenboim-Elkin [4] / Kuhn [19]) is only ever invoked on
subgraphs whose maximum degree is bounded by the *constant* (or tiny)
threshold ``lambda`` of Procedure Legal-Color, so its precise dependence on
``Delta`` does not affect any of the paper's asymptotic statements.  We
provide two substitutes:

* :class:`IterativeColorReductionPhase` -- the folklore reduction that
  removes one color class per round (``m - k`` rounds from ``m`` colors to
  ``k >= Delta + 1`` colors); simple, used in tests and at tiny palettes.
* :class:`KuhnWattenhoferReductionPhase` -- the Kuhn-Wattenhofer block
  reduction: the palette is split into blocks of ``2k`` colors, every block is
  reduced to ``k`` colors in parallel (legal because distinct blocks keep
  disjoint palettes), and the palette therefore halves every ``k`` rounds.
  From ``O(Delta^2)`` colors this reaches ``Delta + 1`` in
  ``O(Delta log Delta)`` rounds -- within a ``log Delta`` factor of the black
  box the paper cites.

:func:`delta_plus_one_pipeline` composes Linial's algorithm with either
reduction to give the full Lemma 2.1(2) substitute.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, SimulationError
from repro.local_model.algorithm import SILENT, BroadcastPhase, LocalView, PhasePipeline
from repro.local_model.vectorized import VectorContext, check_color_range
from repro.primitives.linial import LinialColoringPhase
from repro.primitives.numbers import ceil_div

#: The exact exception text of the scalar ``initialize`` validations.
_PALETTE_TEMPLATE = "color {color} outside declared palette 1..{palette}"
#: The exception texts of a recoloring node that finds no free color.
_ITERATIVE_NO_FREE = (
    "no free color during iterative reduction; the target palette "
    "is smaller than the subgraph degree + 1"
)
_KW_NO_FREE = (
    "no free color during Kuhn-Wattenhofer reduction; the target "
    "palette is smaller than the subgraph degree + 1"
)


def _validated_colors(ctx: VectorContext, input_key: str, palette: int) -> np.ndarray:
    """Gather the input coloring and apply the scalar ``initialize`` validation."""
    colors = ctx.column(input_key)
    check_color_range(colors, palette, _PALETTE_TEMPLATE)
    return colors


class IterativeColorReductionPhase(BroadcastPhase):
    """Reduce a legal ``palette``-coloring to ``target`` colors, one class per round.

    Requires ``target >= (maximum degree of the subgraph) + 1``: in each round
    the (independent) class holding the currently largest color re-picks a
    free color from ``{1, ..., target}``.
    """

    def __init__(
        self,
        palette: int,
        target: int,
        input_key: str,
        output_key: str = "reduced_color",
    ) -> None:
        if target < 1:
            raise InvalidParameterError("target palette must be at least 1")
        if palette < 1:
            raise InvalidParameterError("palette must be at least 1")
        self.name = f"reduce[{palette}->{target}]"
        self.palette = palette
        self.target = target
        self.input_key = input_key
        self.output_key = output_key
        self.total_rounds = max(0, palette - target)

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        color = int(state[self.input_key])
        if not 1 <= color <= self.palette:
            raise InvalidParameterError(
                f"color {color} outside declared palette 1..{self.palette}"
            )
        state["_reduce_current"] = color

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        if self.total_rounds == 0:
            return SILENT
        return state["_reduce_current"]

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        if self.total_rounds == 0:
            state[self.output_key] = state["_reduce_current"]
            return True

        active_color = self.palette - round_index + 1
        if state["_reduce_current"] == active_color and active_color > self.target:
            taken = {int(color) for color in inbox.values()}
            replacement = next(
                (c for c in range(1, self.target + 1) if c not in taken), None
            )
            if replacement is None:
                raise SimulationError(_ITERATIVE_NO_FREE)
            state["_reduce_current"] = replacement

        if round_index == self.total_rounds:
            state[self.output_key] = state["_reduce_current"]
            return True
        return False

    def max_rounds(self, n: int, max_degree: int) -> int:
        return self.total_rounds + 2

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        The rounds run as one ``ctx.kernels.iter_reduce`` call.
        """
        colors = _validated_colors(ctx, self.input_key, self.palette)
        if self.total_rounds == 0:
            ctx.charge_silent_round()
            ctx.write_column("_reduce_current", colors)
            ctx.write_column(self.output_key, colors)
            return

        fast = ctx.fast
        status = np.zeros(1, dtype=np.int64)
        ctx.kernels.iter_reduce(
            fast.indptr,
            fast.indices,
            colors,
            self.palette,
            self.target,
            self.total_rounds,
            status,
        )
        if status[0] != 0:
            raise SimulationError(_ITERATIVE_NO_FREE)
        ctx.charge_uniform_broadcast(self.total_rounds)
        ctx.write_column("_reduce_current", colors)
        ctx.write_column(self.output_key, colors)


class KuhnWattenhoferReductionPhase(BroadcastPhase):
    """Kuhn-Wattenhofer block color reduction.

    Repeatedly partitions the palette into blocks of ``2 * target`` colors and
    reduces every block to its first ``target`` colors in parallel.  Distinct
    blocks end up with disjoint palettes, so cross-block edges remain legal;
    within a block, the upper-half classes are eliminated one per round, and a
    recoloring vertex only needs ``target >= degree + 1`` free colors.  The
    palette (roughly) halves every ``target`` rounds, so the total number of
    rounds is ``O(target * log(palette / target))``.
    """

    def __init__(
        self,
        palette: int,
        target: int,
        input_key: str,
        output_key: str = "reduced_color",
    ) -> None:
        if target < 1:
            raise InvalidParameterError("target palette must be at least 1")
        if palette < 1:
            raise InvalidParameterError("palette must be at least 1")
        self.name = f"kw-reduce[{palette}->{target}]"
        self.palette = palette
        self.target = target
        self.input_key = input_key
        self.output_key = output_key

        # Deterministic iteration plan, computed identically by every vertex.
        self.iteration_palettes: List[int] = []
        current = palette
        while current > target:
            self.iteration_palettes.append(current)
            blocks = ceil_div(current, 2 * target)
            current = blocks * target
        self.final_palette = current
        self.total_rounds = len(self.iteration_palettes) * target

    # ------------------------------------------------------------------ #

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        color = int(state[self.input_key])
        if not 1 <= color <= self.palette:
            raise InvalidParameterError(
                f"color {color} outside declared palette 1..{self.palette}"
            )
        state["_kw_current"] = color

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        if self.total_rounds == 0:
            return SILENT
        return state["_kw_current"]

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        if self.total_rounds == 0:
            state[self.output_key] = state["_kw_current"]
            return True

        k = self.target
        iteration = (round_index - 1) // k
        step = (round_index - 1) % k

        color = state["_kw_current"]
        block = (color - 1) // (2 * k)
        offset = (color - 1) % (2 * k)

        if offset == k + step:
            # Recolor into the lower half of the block, avoiding neighbors
            # currently sitting in this block's lower half.
            taken = set()
            for neighbor_color in inbox.values():
                neighbor_color = int(neighbor_color)
                n_block = (neighbor_color - 1) // (2 * k)
                n_offset = (neighbor_color - 1) % (2 * k)
                if n_block == block and n_offset < k:
                    taken.add(n_offset)
            replacement = next((o for o in range(k) if o not in taken), None)
            if replacement is None:
                raise SimulationError(_KW_NO_FREE)
            state["_kw_current"] = block * 2 * k + replacement + 1

        if step == k - 1:
            # End of the iteration: relabel (block, lower-offset) pairs into a
            # compact palette.  Purely local.
            color = state["_kw_current"]
            block = (color - 1) // (2 * k)
            offset = (color - 1) % (2 * k)
            state["_kw_current"] = block * k + offset + 1

        if round_index == self.total_rounds:
            state[self.output_key] = state["_kw_current"]
            return True
        return False

    def max_rounds(self, n: int, max_degree: int) -> int:
        return self.total_rounds + 2

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        The rounds run as one ``ctx.kernels.kw_reduce`` call.
        """
        colors = _validated_colors(ctx, self.input_key, self.palette)
        if self.total_rounds == 0:
            ctx.charge_silent_round()
            ctx.write_column("_kw_current", colors)
            ctx.write_column(self.output_key, colors)
            return

        fast = ctx.fast
        status = np.zeros(1, dtype=np.int64)
        ctx.kernels.kw_reduce(
            fast.indptr, fast.indices, colors, self.target, self.total_rounds, status
        )
        if status[0] != 0:
            raise SimulationError(_KW_NO_FREE)
        ctx.charge_uniform_broadcast(self.total_rounds)
        ctx.write_column("_kw_current", colors)
        ctx.write_column(self.output_key, colors)


def delta_plus_one_pipeline(
    n: int,
    degree_bound: int,
    initial_palette: Optional[int] = None,
    input_key: Optional[str] = None,
    output_key: str = "legal_color",
    target: Optional[int] = None,
    use_kuhn_wattenhofer: bool = True,
) -> Tuple[PhasePipeline, int]:
    """The Lemma 2.1(2) substitute: a legal ``target``-coloring pipeline.

    Runs Linial's algorithm (starting from unique identifiers, or from an
    existing legal coloring when ``input_key`` is given) and then reduces the
    palette to ``target`` (default ``degree_bound + 1``).

    Returns
    -------
    (pipeline, palette):
        The pipeline and the size of the palette it guarantees (``target``).
    """
    if target is None:
        target = degree_bound + 1
    if target < degree_bound + 1:
        raise InvalidParameterError(
            f"target palette {target} must be at least degree_bound + 1 = {degree_bound + 1}"
        )
    if initial_palette is None:
        initial_palette = max(1, n)  # an empty graph has no ids to palette

    linial = LinialColoringPhase(
        degree_bound=degree_bound,
        initial_palette=initial_palette,
        input_key=input_key,
        output_key="_dp1_linial",
    )
    reducer_cls = (
        KuhnWattenhoferReductionPhase if use_kuhn_wattenhofer else IterativeColorReductionPhase
    )
    reducer = reducer_cls(
        palette=linial.final_palette,
        target=target,
        input_key="_dp1_linial",
        output_key=output_key,
    )
    return PhasePipeline([linial, reducer], name="delta-plus-one"), target
