"""The zero-round glue phase: copy one state key into another.

A purely local state transformation (the paper charges it zero rounds):
copying a computed color into a differently named slot.  On the vectorized
engine's columnar :class:`~repro.local_model.state_table.StateTable` the
copy is one array copy instead of ``n`` dictionary writes.  Zero-round
phases charge no metrics on any engine, so ``vector_run`` only has to
reproduce the state effect of :meth:`compute` exactly.
"""

from __future__ import annotations

from typing import Any, Dict

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
