"""Per-phase adapters: route a phase's hot loops through the kernel backend.

Each runner replicates the corresponding ``vector_run`` *exactly* -- same
validation, same degenerate cases, same metric charging, same state writes
-- swapping only the per-round array chains for one fused kernel call, so
kernels on and kernels off stay bit-identical (which the equivalence suite
and the goldens enforce).  Each runner calls the backend before it writes a
column or charges a metric: when the backend raises
:class:`~repro.exceptions.EngineFailure`, the vectorized engine re-runs the
phase's ``vector_run`` on an untouched context.

Runners are registered by *qualified class name*, not by class object: the
phase modules import the scheduler stack, so importing them here would be
circular.  Dispatch walks the phase's MRO, which keeps user subclasses of a
registered phase on the kernel path as long as they do not override
``vector_run`` semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.local_model.vectorized import VectorContext, check_color_range

#: Exact scalar-engine error texts (see the corresponding phase modules).
_PALETTE_TEMPLATE = "color {color} outside declared palette 1..{palette}"
_LINIAL_TEMPLATE = "initial color {color} outside palette 1..{palette}"
_ITER_ERROR = (
    "no free color during iterative reduction; the target palette "
    "is smaller than the subgraph degree + 1"
)
_KW_ERROR = (
    "no free color during Kuhn-Wattenhofer reduction; the target "
    "palette is smaller than the subgraph degree + 1"
)


def run_linial(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.primitives.linial.LinialColoringPhase`."""
    if phase.input_key is None:
        colors = ctx.unique_ids().copy()
    else:
        colors = ctx.column(phase.input_key)
    check_color_range(colors, phase.initial_palette, _LINIAL_TEMPLATE)

    if phase.degree_bound == 0:
        ctx.charge_silent_round()
        ctx.write_column("_linial_current", colors)
        ctx.write_value(phase.output_key, 1)
        return
    if not phase.schedule:
        ctx.charge_silent_round()
        ctx.write_column("_linial_current", colors)
        ctx.write_column(phase.output_key, colors)
        return

    fast = ctx.fast
    uids = fast.unique_ids_np
    for q, digits, _palette_before in phase.schedule:
        out = np.empty(fast.num_nodes, dtype=np.int64)
        backend.linial_round(
            fast.indptr_np, fast.indices_np, uids, colors, q, digits, out
        )
        colors = out
    ctx.charge_uniform_broadcast(len(phase.schedule))
    ctx.write_column("_linial_current", colors)
    ctx.write_column(phase.output_key, colors)


def run_defective_step(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.primitives.kuhn_defective.DefectiveStepPhase`."""
    colors = ctx.column(phase.input_key)
    check_color_range(colors, phase.palette, _PALETTE_TEMPLATE)
    fast = ctx.fast
    out = np.empty(fast.num_nodes, dtype=np.int64)
    backend.defective_step(
        fast.indptr_np, fast.indices_np, colors, phase.q, phase.digits, out
    )
    ctx.charge_uniform_broadcast(1)
    ctx.write_column(phase.output_key, out)


def run_iterative_reduction(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.primitives.color_reduction.IterativeColorReductionPhase`."""
    colors = ctx.column(phase.input_key)
    check_color_range(colors, phase.palette, _PALETTE_TEMPLATE)
    if phase.total_rounds == 0:
        ctx.charge_silent_round()
        ctx.write_column("_reduce_current", colors)
        ctx.write_column(phase.output_key, colors)
        return
    fast = ctx.fast
    status = np.zeros(1, dtype=np.int64)
    backend.iter_reduce(
        fast.indptr_np,
        fast.indices_np,
        colors,
        phase.palette,
        phase.target,
        phase.total_rounds,
        status,
    )
    if status[0] != 0:
        raise SimulationError(_ITER_ERROR)
    ctx.charge_uniform_broadcast(phase.total_rounds)
    ctx.write_column("_reduce_current", colors)
    ctx.write_column(phase.output_key, colors)


def run_kw_reduction(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.primitives.color_reduction.KuhnWattenhoferReductionPhase`."""
    colors = ctx.column(phase.input_key)
    check_color_range(colors, phase.palette, _PALETTE_TEMPLATE)
    if phase.total_rounds == 0:
        ctx.charge_silent_round()
        ctx.write_column("_kw_current", colors)
        ctx.write_column(phase.output_key, colors)
        return
    fast = ctx.fast
    status = np.zeros(1, dtype=np.int64)
    backend.kw_reduce(
        fast.indptr_np,
        fast.indices_np,
        colors,
        phase.target,
        phase.total_rounds,
        status,
    )
    if status[0] == 2:  # kernel scratch allocation failed; colors untouched
        phase.vector_run(ctx)
        return
    if status[0] != 0:
        raise SimulationError(_KW_ERROR)
    ctx.charge_uniform_broadcast(phase.total_rounds)
    ctx.write_column("_kw_current", colors)
    ctx.write_column(phase.output_key, colors)


def run_defective_edge(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.primitives.kuhn_defective_edge.KuhnDefectiveEdgeColoringPhase`."""
    from repro.primitives.kuhn_defective_edge import line_meta_for

    fast = ctx.fast
    meta = line_meta_for(fast)
    n = fast.num_nodes
    codes, sizes = phase._class_column(ctx)
    has_codes = 0 if codes is None else 1
    if codes is None:
        codes = np.zeros(n, dtype=np.int64)
    else:
        codes = np.ascontiguousarray(codes, dtype=np.int64)

    rank_u = np.empty(n, dtype=np.int64)
    rank_v = np.empty(n, dtype=np.int64)
    backend.edge_rank(
        fast.indptr_np,
        fast.indices_np,
        np.ascontiguousarray(meta.edge_u, dtype=np.int64),
        np.ascontiguousarray(meta.edge_v, dtype=np.int64),
        np.ascontiguousarray(meta.sort_rank, dtype=np.int64),
        codes,
        has_codes,
        rank_u,
        rank_v,
    )
    label_u = np.minimum(rank_u // phase._chunk + 1, phase.p_prime)
    label_v = np.minimum(rank_v // phase._chunk + 1, phase.p_prime)

    if sizes is None:
        ctx.charge_uniform_broadcast(1, payload_words=2)
    else:
        nnz = len(fast.indices)
        degrees = fast.degrees_np
        ctx.charge(
            rounds=1,
            messages=nnz,
            total_words=int((degrees * sizes).sum()),
            max_message_words=int(sizes[degrees > 0].max()) if nnz else 0,
        )
    ctx.write_column(phase.output_key, (label_u - 1) * phase.p_prime + label_v)


def run_psi_selection(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.core.defective_coloring.PsiSelectionPhase`.

    The kernel sweeps the phi-classes in the order ``phase.phi_classes``
    lists them.
    """
    fast = ctx.fast
    n = fast.num_nodes
    phi = np.ascontiguousarray(ctx.column(phase.phi_key), dtype=np.int64)
    order, class_ptr = phase.phi_classes(phi)
    depth = np.zeros(n, dtype=np.int64)
    psi = np.zeros(n, dtype=np.int64)
    status = backend.psi_select(
        fast.indptr_np,
        fast.indices_np,
        phi,
        order,
        class_ptr,
        phase.p,
        depth,
        psi,
    )
    if status == 2:  # kernel scratch allocation failed; nothing written
        phase.vector_run(ctx)
        return
    phase.finish(ctx, depth, psi)


def run_luby(phase, ctx: VectorContext, backend) -> None:
    """Compiled :class:`~repro.baselines.luby_random.LubyRandomColoringPhase`.

    The draws stay on :class:`StringSeededDraws` (hashlib cannot be
    compiled and the draw stream defines bit-identity); the four per-round
    array sweeps -- free counting, candidate selection, final absorption,
    conflict resolution -- run fused over the CSR.
    """
    from repro.local_model.rng_kernel import StringSeededDraws

    fast = ctx.fast
    n = fast.num_nodes
    palette = phase.palette
    degrees = fast.degrees_np
    indptr, indices = fast.indptr_np, fast.indices_np
    draws = StringSeededDraws(phase.seed, ctx.unique_ids())

    taken = np.zeros((n, palette), dtype=np.uint8)
    final = np.zeros(n, dtype=np.int64)
    candidate = np.zeros(n, dtype=np.int64)
    undecided = np.arange(n, dtype=np.int64)
    undecided_mask = np.ones(n, dtype=np.uint8)
    announce = np.zeros(0, dtype=np.int64)

    messages = 0
    round_index = 0
    while len(undecided) or len(announce):
        round_index += 1
        ctx.check_round_budget(round_index)
        messages += int(degrees[undecided].sum()) + int(degrees[announce].sum())

        # --- broadcast: undecided nodes draw from their free colors --- #
        free_counts = np.empty(len(undecided), dtype=np.int64)
        backend.luby_free_counts(undecided, taken, palette, free_counts)
        candidate[undecided] = 0
        drawing = free_counts > 0
        lanes = np.ascontiguousarray(undecided[drawing])
        if len(lanes):
            picks = draws.draw(lanes, free_counts[drawing], round_index)
            picks = np.ascontiguousarray(picks, dtype=np.int64)
            backend.luby_candidates(lanes, picks, taken, palette, candidate)

        # --- receive: neighbor finals first (undecided rows only) --- #
        if len(announce):
            backend.luby_absorb(announce, indptr, indices, final, undecided_mask, taken)

        # --- conflicts + keep, against the just-updated taken rows --- #
        keep_flags = np.empty(len(undecided), dtype=np.uint8)
        backend.luby_resolve(undecided, indptr, indices, candidate, taken, keep_flags)
        keep = keep_flags.view(bool)
        deciders = np.ascontiguousarray(undecided[keep])
        final[deciders] = candidate[deciders]
        candidate[deciders] = 0
        undecided_mask[deciders] = 0
        announce = deciders
        undecided = np.ascontiguousarray(undecided[~keep])

    ctx.charge(round_index, messages, 2 * messages, 2 if messages else 0)
    ctx.write_column(phase.output_key, final)
    ctx.write_column("_luby_final", final)


#: Qualified phase class name -> compiled runner.
_ADAPTERS: Dict[str, Callable] = {
    "repro.primitives.linial.LinialColoringPhase": run_linial,
    "repro.primitives.kuhn_defective.DefectiveStepPhase": run_defective_step,
    "repro.primitives.color_reduction.IterativeColorReductionPhase": run_iterative_reduction,
    "repro.primitives.color_reduction.KuhnWattenhoferReductionPhase": run_kw_reduction,
    "repro.primitives.kuhn_defective_edge.KuhnDefectiveEdgeColoringPhase": run_defective_edge,
    "repro.core.defective_coloring.PsiSelectionPhase": run_psi_selection,
    "repro.baselines.luby_random.LubyRandomColoringPhase": run_luby,
}


def runner_for(phase) -> Optional[Callable]:
    """The registered compiled runner for ``phase`` (walks the MRO), or None."""
    for klass in type(phase).__mro__:
        runner = _ADAPTERS.get(f"{klass.__module__}.{klass.__qualname__}")
        if runner is not None:
            return runner
    return None
