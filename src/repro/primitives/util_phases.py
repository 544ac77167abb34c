"""Small reusable zero-round phases.

These are purely local state transformations (the paper charges them zero
rounds): copying a computed color into a differently named slot, assigning a
constant color, or combining per-level colors into a unified palette.

All three declare vectorized kernels, so a pipeline composed of broadcast
color phases and these glue steps runs end-to-end on the vectorized engine
with **zero** reference fallbacks -- on the engine's columnar
:class:`~repro.local_model.state_table.StateTable`, a copy is an array copy
and a constant fill is an array fill instead of ``n`` dictionary writes.
Zero-round phases charge no metrics on any engine, so the kernels only have
to reproduce the state effect of :meth:`compute` exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.local_model.algorithm import LocalComputationPhase, LocalView
from repro.local_model.vectorized import VectorContext


class CopyKeyPhase(LocalComputationPhase):
    """Copy ``state[source_key]`` into ``state[target_key]`` (zero rounds)."""

    def __init__(self, source_key: str, target_key: str) -> None:
        self.name = f"copy[{source_key}->{target_key}]"
        self._source_key = source_key
        self._target_key = target_key

    def compute(self, view: LocalView, state: Dict[str, Any]) -> None:
        state[self._target_key] = state[self._source_key]

    def vector_run(self, ctx: VectorContext) -> None:
        ctx.copy_key(self._source_key, self._target_key)


class ConstantColorPhase(LocalComputationPhase):
    """Assign the same constant color to every node (zero rounds).

    Only legal when the (sub)graph being colored has no edges -- e.g. a
    degree-0 bound at the bottom of a recursion.
    """

    def __init__(self, output_key: str, color: int = 1) -> None:
        self.name = f"constant-color[{color}]"
        self._output_key = output_key
        self._color = color

    def compute(self, view: LocalView, state: Dict[str, Any]) -> None:
        state[self._output_key] = self._color

    def vector_run(self, ctx: VectorContext) -> None:
        ctx.write_value(self._output_key, self._color)


class TransformKeyPhase(LocalComputationPhase):
    """Apply a pure function to one state key and store the result in another.

    The function receives ``(view, value)`` so transformations may depend on
    locally available information (e.g. the node's unique identifier), but on
    nothing else -- keeping the zero-round claim honest.

    ``vector_transform``, when given, is the whole-column form used by the
    vectorized engine: it receives ``(ctx, values)`` -- the
    :class:`~repro.local_model.vectorized.VectorContext` and the source
    column as an ``int64`` array -- and must return the transformed column
    (producing exactly ``transform``'s per-node results).  Without it the
    kernel applies ``transform`` node by node, which still avoids the engine
    fallback but not the per-node Python cost.
    """

    def __init__(
        self,
        source_key: str,
        target_key: str,
        transform: Callable[[LocalView, Any], Any],
        name: str = "transform",
        vector_transform: Optional[
            Callable[[VectorContext, np.ndarray], np.ndarray]
        ] = None,
    ) -> None:
        self.name = name
        self._source_key = source_key
        self._target_key = target_key
        self._transform = transform
        self._vector_transform = vector_transform

    def compute(self, view: LocalView, state: Dict[str, Any]) -> None:
        state[self._target_key] = self._transform(view, state[self._source_key])

    def vector_run(self, ctx: VectorContext) -> None:
        if self._vector_transform is not None:
            values = ctx.column(self._source_key)
            ctx.write_column(self._target_key, self._vector_transform(ctx, values))
            return
        transform = self._transform
        views = ctx.views
        ctx.write_values(
            self._target_key,
            [
                transform(views[i], value)
                for i, value in enumerate(ctx.read_values(self._source_key))
            ],
        )
