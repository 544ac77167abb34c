"""Luby-style randomized coloring: the randomized baseline of Table 2.

Every still-uncolored vertex picks a uniformly random candidate color from
the part of its palette not yet taken by finished neighbors and keeps it if
no *competing* (still-uncolored) neighbor picked the same candidate in the
same round.  With a palette of ``Delta + 1`` colors the algorithm terminates
in ``O(log n)`` rounds with high probability; it stands in for the randomized
``(2 Delta - 1)``-edge-coloring / ``(Delta + 1)``-vertex-coloring baselines
([29], [18]) the paper compares against in Table 2.

The randomness is a counter hash of ``(seed, unique_id, round)``
(:func:`luby_draw`), so runs are reproducible and still independent across
vertices.  The phase carries a ``vector_run`` kernel (engine
``"vectorized"``): one taken-color bitmask per node, conflict detection as
CSR scatter ops, and the per-node draws evaluated by the same
:func:`luby_draw` on ``uint64`` arrays.  Both engines produce identical
colorings, states and metrics (the equivalence suite locks this down).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import BroadcastPhase, LocalView
from repro.local_model.engine import make_scheduler
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.line_csr import build_line_graph_fast
from repro.local_model.state_table import StateTable
from repro.core.edge_coloring import EdgeColoringResult
from repro.core.legal_coloring import LegalColoringResult
from repro.core.parameters import integer_seed
from repro.local_model.line_graph_sim import apply_lemma_5_2_accounting
from repro.local_model.metrics import RunMetrics

_MASK64 = 2**64 - 1


def _splitmix64(word):
    """SplitMix64's step: add the golden gamma, then its 64-bit finalizer.

    The first mask leaves only ``word`` modulo ``2**64``, so a negative or
    wider-than-64-bit Python int hashes like its ``.astype(np.uint64)`` value.
    """
    word = (word + 0x9E3779B97F4A7C15) & _MASK64
    word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & _MASK64
    return word ^ (word >> 31)


def luby_draw(seed, unique_id, round_index, limit):
    """The index in ``range(limit)`` node ``unique_id`` draws in a round.

    A SplitMix64 chain over ``(seed, unique_id, round_index)``, each word
    taken modulo ``2**64``, reduced ``% limit``.  The one expression serves
    both engines: on Python ints the masks wrap it to 64 bits, and on
    ``uint64`` arrays (``unique_id`` and ``limit``; ``seed`` and
    ``round_index`` stay ints) numpy wraps it the same way, so an array
    lane equals the scalar draw with the same arguments.
    """
    word = _splitmix64(seed)
    word = _splitmix64(word ^ unique_id)
    word = _splitmix64(word ^ round_index)
    return word % limit


class LubyRandomColoringPhase(BroadcastPhase):
    """One phase implementing the trial-and-keep randomized coloring."""

    def __init__(
        self, palette: int, seed: int = 0, output_key: str = "luby_color"
    ) -> None:
        if palette < 1:
            raise InvalidParameterError("palette must be at least 1")
        self.name = f"luby[{palette}]"
        self.palette = palette
        self.seed = integer_seed(seed, "Luby seed")
        self.output_key = output_key

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        state["_luby_final"] = None
        state["_luby_taken"] = set()
        # The complement of _luby_taken within {1..palette}, kept sorted and
        # maintained *incrementally* as neighbor finals arrive: rebuilding it
        # every round per node would make big line-graph runs quadratic in
        # the palette.  Same contents and order as the rebuilt list, so the
        # draws -- hence the whole run -- are bit-identical.
        state["_luby_available"] = list(range(1, self.palette + 1))

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        if state["_luby_final"] is not None:
            # Announce the final color one last time, then halt.
            return {"final": state["_luby_final"]}
        available = state["_luby_available"]
        state["_luby_candidate"] = (
            available[luby_draw(self.seed, view.unique_id, round_index, len(available))]
            if available
            else None
        )
        return {"candidate": state["_luby_candidate"]}

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        if state["_luby_final"] is not None:
            state[self.output_key] = state["_luby_final"]
            # Drop the per-round scratch state at halt: on big palettes the
            # taken/available structures dominate the final table otherwise.
            state.pop("_luby_taken", None)
            state.pop("_luby_available", None)
            state.pop("_luby_candidate", None)
            return True

        candidate = state.get("_luby_candidate")
        taken = state["_luby_taken"]
        available = state["_luby_available"]
        for payload in inbox.values():
            final = payload.get("final")
            if final is not None and final not in taken:
                taken.add(final)
                at = bisect_left(available, final)
                if at < len(available) and available[at] == final:
                    available.pop(at)

        conflict = candidate is None or any(
            payload.get("candidate") == candidate for payload in inbox.values()
        )
        if not conflict and candidate not in taken:
            state["_luby_final"] = candidate
        return False

    def max_rounds(self, n: int, max_degree: int) -> int:
        # O(log n) w.h.p.; the generous bound below keeps the safety margin.
        return 64 + 16 * max(1, n).bit_length()

    # ------------------------------------------------------------------ #
    # Vectorized kernel
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx) -> None:
        """The whole trial-and-keep loop as array ops over the CSR.

        Mirrors the scalar schedule exactly: a node that keeps its candidate
        in round ``r`` announces ``{"final": c}`` in round ``r + 1`` and
        halts in that round's receive *without* reading its inbox -- so its
        taken set freezes at the end of round ``r``, which the kernel
        realizes by only ever updating rows of still-undecided nodes.  Lane
        ``i`` takes the ``luby_draw(...)``-th free color in ascending order,
        exactly as the scalar ``available[luby_draw(...)]``.  When
        ``ctx.kernels`` is set, the four per-round sweeps -- free counting,
        candidate selection, final absorption, conflict resolution -- run as
        fused ``luby_*`` kernels; the draws stay here (the draw stream
        defines bit-identity).
        """
        fast = ctx.fast
        n = fast.num_nodes
        palette = self.palette
        degrees = fast.degrees_np
        kernels = ctx.kernels
        unique_ids = ctx.unique_ids().astype(np.uint64)

        # uint8 for the kernels; the numpy steps use the bool views.
        taken = np.zeros((n, palette), dtype=np.uint8)
        undecided_mask = np.ones(n, dtype=np.uint8)
        taken_flags, undecided_flags = taken.view(bool), undecided_mask.view(bool)
        final = np.zeros(n, dtype=np.int64)
        candidate = np.zeros(n, dtype=np.int64)  # 0 encodes "no candidate"
        undecided = np.arange(n, dtype=np.int64)
        announce = np.zeros(0, dtype=np.int64)

        messages = 0
        round_index = 0
        while len(undecided) or len(announce):
            round_index += 1
            ctx.check_round_budget(round_index)
            # Every live node (undecided + announcing) broadcasts one
            # two-word payload to each neighbor this round.
            messages += int(degrees[undecided].sum()) + int(degrees[announce].sum())

            # --- broadcast: undecided nodes draw from their free colors --- #
            if kernels is None:
                free = ~taken_flags[undecided]
                free_counts = free.sum(axis=1)
            else:
                free_counts = np.empty(len(undecided), dtype=np.int64)
                kernels.luby_free_counts(undecided, taken, palette, free_counts)
            candidate[undecided] = 0
            drawing = free_counts > 0
            lanes = undecided[drawing]
            if len(lanes):
                limits = free_counts[drawing].astype(np.uint64)
                picks = luby_draw(
                    self.seed, unique_ids[lanes], round_index, limits
                ).astype(np.int64)
                if kernels is None:
                    free_rows = free[drawing]
                    ranks = np.cumsum(free_rows, axis=1)
                    hits = free_rows & (ranks == (picks + 1)[:, None])
                    candidate[lanes] = np.argmax(hits, axis=1) + 1
                else:
                    kernels.luby_candidates(lanes, picks, taken, palette, candidate)

            # --- receive: neighbor finals first (undecided rows only) --- #
            if len(announce):
                if kernels is None:
                    local, neighbors = ctx.gather_neighbors(announce)
                    hit = undecided_flags[neighbors]
                    taken_flags[neighbors[hit], final[announce[local[hit]]] - 1] = True
                else:
                    kernels.luby_absorb(
                        announce, fast.indptr, fast.indices, final, undecided_mask, taken
                    )

            # --- conflicts + keep, against the just-updated taken rows --- #
            if kernels is None:
                local, neighbors = ctx.gather_neighbors(undecided)
                mine = candidate[undecided[local]]
                clash = (mine != 0) & (candidate[neighbors] == mine)
                conflict = np.zeros(len(undecided), dtype=bool)
                conflict[local[clash]] = True
                mine = candidate[undecided]
                keep = (mine != 0) & ~conflict
                keep &= ~taken_flags[undecided, np.maximum(mine - 1, 0)]
            else:
                keep_flags = np.empty(len(undecided), dtype=np.uint8)
                kernels.luby_resolve(
                    undecided, fast.indptr, fast.indices, candidate, taken, keep_flags
                )
                keep = keep_flags.view(bool)
            deciders = undecided[keep]
            final[deciders] = candidate[deciders]
            # Decided nodes announce {"final": c} next round: their payload
            # has no "candidate" entry, so they stop clashing immediately.
            candidate[deciders] = 0
            undecided_flags[deciders] = False
            announce = deciders
            undecided = undecided[~keep]

        ctx.charge(
            round_index, messages, 2 * messages, 2 if messages else 0
        )

        # --- final per-node states, bit-identical to the scalar engines --- #
        # The scalar receive pops the taken/available/candidate scratch keys
        # at halt, so the terminal state is exactly these two columns.
        ctx.write_column(self.output_key, final)
        ctx.write_column("_luby_final", final)


def _run_phase(
    network: FastNetwork, phase: LubyRandomColoringPhase, engine: Optional[str]
) -> Tuple[np.ndarray, RunMetrics, Any]:
    """Run the phase table-native and return (color column, metrics, fast)."""
    fast = fast_view(network)
    scheduler = make_scheduler(fast, engine=engine)
    table, metrics = scheduler.run_table(phase, StateTable(fast.num_nodes))
    if fast.num_nodes == 0:
        return np.zeros(0, dtype=np.int64), metrics, fast
    return table.get_ints(phase.output_key), metrics, fast


def luby_vertex_coloring(
    network: FastNetwork,
    palette: int | None = None,
    seed: int = 0,
    engine: Optional[str] = None,
) -> LegalColoringResult:
    """Randomized ``(Delta + 1)``-vertex-coloring of ``network``.

    Takes a :class:`~repro.local_model.fast_network.FastNetwork` and returns a
    :class:`~repro.core.legal_coloring.LegalColoringResult` -- the same
    result shape as :func:`repro.core.legal_coloring.color_vertices`, with
    ``color_column`` in dense node order.  The default palette is
    ``Delta + 1`` with ``Delta`` read off the CSR degree column (no Python
    pass over the adjacency).
    """
    fast = fast_view(network)
    if palette is None:
        palette = fast.max_degree + 1
    phase = LubyRandomColoringPhase(palette=palette, seed=seed)
    column, metrics, fast = _run_phase(fast, phase, engine)
    return LegalColoringResult(
        colors=fast.column_mapping(column),
        palette=palette,
        metrics=metrics,
        color_column=column,
    )


def luby_edge_coloring(
    network: FastNetwork,
    palette: int | None = None,
    seed: int = 0,
    engine: Optional[str] = None,
) -> EdgeColoringResult:
    """Randomized ``(2 Delta - 1)``-edge-coloring via the line graph.

    Takes a ``FastNetwork``; the line graph is derived CSR-native
    (:func:`~repro.local_model.line_csr.build_line_graph_fast`) and the
    result carries ``color_column`` in the line graph's dense edge order.
    """
    line_fast = build_line_graph_fast(network)
    if palette is None:
        palette = max(1, line_fast.max_degree + 1)
    phase = LubyRandomColoringPhase(palette=palette, seed=seed)
    column, raw_metrics, line_fast = _run_phase(line_fast, phase, engine)
    metrics = apply_lemma_5_2_accounting(network, raw_metrics)
    return EdgeColoringResult(
        edge_colors=line_fast.column_mapping(column),
        palette=palette,
        metrics=metrics,
        route="baseline-luby",
        line_graph_max_degree=line_fast.max_degree,
        color_column=column,
    )
