"""Procedure Defective-Color (Algorithm 1).

This is the paper's main technical contribution: on a graph whose
neighborhood independence is bounded by a constant ``c``, it computes an
``O(Delta/p)``-defective ``p``-coloring -- i.e. the product of the defect and
the number of colors is *linear* in ``Delta``, whereas all previously known
efficient routines had a super-linear product.

The procedure works in two steps (for each vertex ``v``):

1. Compute a ``floor(Lambda/(b p))``-defective ``O((b p)^2)``-coloring
   ``phi`` using a known black box (Lemma 2.1(3) in the vertex setting; the
   ``O(1)``-round routine of Corollary 5.4 in the edge setting).
2. Re-color greedily in the order of the ``phi``-classes: once ``v`` has
   heard the new color ``psi(u)`` of every neighbor ``u`` with
   ``phi(u) < phi(v)``, it picks the ``psi``-color from ``{1, ..., p}`` used
   by the *fewest* of those neighbors, and announces it.

Theorem 3.7 shows the resulting ``psi`` is a
``c * (Lambda/(b p) + Lambda/p + 1)``-defective ``p``-coloring; the argument
combines the acyclic-orientation bound on the chromatic number of each
``psi``-class (Lemmas 3.4, 3.5) with the bounded-neighborhood-independence
assumption (Lemma 3.6).  Its running time is dominated by the number of
``phi``-colors, i.e. ``O((b p)^2)`` rounds, plus the cost of step 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.core.parameters import independence_bound
from repro.exceptions import InvalidParameterError
from repro.local_model.algorithm import SILENT, BroadcastPhase, LocalView, PhasePipeline
from repro.local_model.engine import make_scheduler
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs, fast_view
from repro.local_model.metrics import RunMetrics
from repro.local_model.vectorized import VectorContext
from repro.primitives.kuhn_defective import defective_coloring_pipeline
from repro.primitives.kuhn_defective_edge import KuhnDefectiveEdgeColoringPhase
from repro.primitives.numbers import ceil_div


@dataclass(frozen=True)
class DefectiveColorInfo:
    """Static guarantees of one Defective-Color invocation.

    Attributes
    ----------
    p:
        The number of ``psi``-colors produced.
    phi_palette:
        The number of colors of the auxiliary coloring ``phi`` (bounds the
        number of rounds of the re-coloring loop).
    phi_defect_bound:
        The defect guaranteed for ``phi``.
    psi_defect_bound:
        The Theorem 3.7 defect bound for the output coloring ``psi``:
        ``c * (phi_defect + floor(Lambda/p) + 1)``.
    output_key:
        The node-state key the ``psi``-color is stored under.
    """

    p: int
    phi_palette: int
    phi_defect_bound: int
    psi_defect_bound: int
    output_key: str


class PsiSelectionPhase(BroadcastPhase):
    """The re-coloring loop of Algorithm 1 (lines 2-10).

    Every vertex first exchanges its ``phi``-color with its neighbors (one
    round), then waits for the ``psi``-colors of all neighbors with a smaller
    ``phi``-color, picks the least-loaded ``psi``-color, and announces it.
    The phase takes at most ``phi_palette + 2`` rounds, since a vertex with
    ``phi``-color ``k`` selects no later than ``k`` rounds after the exchange
    (Lemma 3.2).
    """

    def __init__(
        self,
        p: int,
        phi_key: str,
        phi_palette: int,
        output_key: str = "psi_color",
    ) -> None:
        if p < 1:
            raise InvalidParameterError("p must be at least 1")
        self.name = f"psi-selection[p={p}]"
        self.p = p
        self.phi_key = phi_key
        self.phi_palette = phi_palette
        self.output_key = output_key

    # ------------------------------------------------------------------ #

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        state["_psi_selected"] = None
        state["_psi_announced"] = False
        state["_psi_waiting"] = None  # set of lower-phi neighbors not yet heard from
        state["_psi_counts"] = [0] * self.p

    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        if round_index == 1:
            return {"phi": state[self.phi_key]}
        if state["_psi_selected"] is not None and not state.get("_psi_announced"):
            state["_psi_announced"] = True
            return {"psi": state["_psi_selected"]}
        return SILENT

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        if round_index == 1:
            own_phi = state[self.phi_key]
            waiting = {
                neighbor
                for neighbor, payload in inbox.items()
                if payload["phi"] < own_phi
            }
            state["_psi_waiting"] = waiting
            if not waiting:
                self._select(state)
            return False

        waiting = state["_psi_waiting"]
        for neighbor, payload in inbox.items():
            if "psi" not in payload:
                continue
            if neighbor in waiting:
                waiting.discard(neighbor)
                state["_psi_counts"][payload["psi"] - 1] += 1

        if state["_psi_selected"] is None and not waiting:
            self._select(state)
            return False

        if state.get("_psi_announced"):
            state[self.output_key] = state["_psi_selected"]
            # Drop the selection scratch at halt, as the Luby phase does.
            state.pop("_psi_waiting", None)
            state.pop("_psi_counts", None)
            return True
        return False

    def max_rounds(self, n: int, max_degree: int) -> int:
        return self.phi_palette + 4

    # ------------------------------------------------------------------ #

    def _select(self, state: Dict[str, Any]) -> None:
        counts = state["_psi_counts"]
        minimum = min(counts)
        state["_psi_selected"] = counts.index(minimum) + 1

    # ------------------------------------------------------------------ #
    # Vectorized execution (see repro.local_model.vectorized)
    # ------------------------------------------------------------------ #

    def vector_run(self, ctx: VectorContext) -> None:
        """The whole phase as array arithmetic; bit-identical to the callbacks.

        The round-by-round loop has a closed form: a vertex selects once all
        neighbors with a smaller ``phi``-color have announced, so processing
        vertices in ascending ``phi`` order replays every selection with its
        exact final counts.  The announcement round of ``v`` is
        ``depth(v) + 2`` where ``depth`` is the longest strictly-decreasing
        ``phi``-chain below ``v``, which yields the exact round count; every
        vertex broadcasts its ``phi`` once (round 1, a 2-word dict) and its
        ``psi`` once (its announcement round, a 2-word dict), which yields
        the exact message metrics.  The per-node scratch (``_psi_counts``,
        ``_psi_waiting``) is never built: every engine drops it at halt.

        The sweep over the ``phi``-classes runs as the fused ``psi_select``
        kernel when ``ctx.kernels`` is set; when kernels are off, or the
        kernel cannot allocate its scratch (status 2), it runs as numpy.
        """
        fast = ctx.fast
        n = fast.num_nodes
        p = self.p
        phi = ctx.column(self.phi_key)

        depth = np.zeros(n, dtype=np.int64)
        psi = np.zeros(n, dtype=np.int64)
        order, class_ptr = self.phi_classes(phi)
        kernels = ctx.kernels
        if kernels is not None:
            status = kernels.psi_select(
                fast.indptr, fast.indices, phi, order, class_ptr, p, depth, psi
            )
        if kernels is None or status == 2:
            for start, end in zip(class_ptr[:-1].tolist(), class_ptr[1:].tolist()):
                batch = order[start:end]
                value = phi[batch[0]]
                local_rows, neighbors = ctx.gather_neighbors(batch)
                lower = phi[neighbors] < value
                sources = local_rows[lower]
                lower_neighbors = neighbors[lower]
                batch_depth = np.zeros(batch.size, dtype=np.int64)
                np.maximum.at(batch_depth, sources, depth[lower_neighbors] + 1)
                depth[batch] = batch_depth
                batch_counts = np.bincount(
                    sources * p + (psi[lower_neighbors] - 1), minlength=batch.size * p
                ).reshape(batch.size, p)
                psi[batch] = np.argmin(batch_counts, axis=1) + 1

        nnz = len(fast.indices)
        ctx.charge(
            rounds=int(depth.max()) + 2,
            messages=2 * nnz,
            total_words=4 * nnz,
            max_message_words=2 if nnz else 0,
        )
        ctx.write_column(self.output_key, psi)
        ctx.write_column("_psi_selected", psi)
        ctx.write_value("_psi_announced", True)

    @staticmethod
    def phi_classes(phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The nodes by ascending ``phi`` and the bounds of its classes.

        Returns ``(order, class_ptr)``: ``order`` is the stable argsort of
        ``phi`` (one in-place key sort), and class ``k`` is
        ``order[class_ptr[k]:class_ptr[k + 1]]``, ascending within the class.
        """
        n = len(phi)
        if not n:
            return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        order = _lexsort_pairs(phi, np.zeros(n, dtype=np.int64))
        bounds = np.flatnonzero(np.diff(phi[order])) + 1
        return order, np.r_[0, bounds, n].astype(np.int64)


def psi_defect_bound(b: int, p: int, Lambda: int, c: int, mode: str = "vertex") -> int:
    """The Theorem 3.7 defect bound of ``psi``: ``c * (phi_defect + floor(Lambda/p) + 1)``.

    ``phi_defect`` is ``floor(Lambda/(b p))`` for the Lemma 2.1(3) step 1
    (``mode="vertex"``) and ``4 * ceil(Lambda/(b p))`` for Corollary 5.4
    (``mode="edge"``).  It depends on the parameters alone, so the
    Legal-Color plan computes it without the graph.
    """
    if mode == "vertex":
        phi_defect = Lambda // (b * p)
    else:
        phi_defect = 4 * ceil_div(Lambda, b * p)
    return c * (phi_defect + Lambda // p + 1)


def defective_color_pipeline(
    n: int,
    b: int,
    p: int,
    Lambda: int,
    c: int,
    mode: str = "vertex",
    auxiliary_key: Optional[str] = None,
    auxiliary_palette: Optional[int] = None,
    class_key: Optional[str] = None,
    output_key: str = "psi_color",
) -> Tuple[PhasePipeline, DefectiveColorInfo]:
    """Build the full Procedure Defective-Color pipeline.

    Parameters
    ----------
    n:
        Number of vertices of the network the pipeline will run on (used as
        the initial identifier palette when no auxiliary coloring is given).
    b, p, Lambda, c:
        The procedure's parameters: slack ``b >= 1``, target color count
        ``p >= 1``, degree bound ``Lambda >= max degree``, and the bound ``c``
        on the neighborhood independence.  Requires ``b * p <= Lambda``.
    mode:
        ``"vertex"`` computes the step-1 coloring ``phi`` with the Lemma
        2.1(3) routine; ``"edge"`` uses Corollary 5.4 (the pipeline must then
        run on a line-graph network whose node ids are edge 2-tuples).
    auxiliary_key, auxiliary_palette:
        Optional pre-computed legal coloring fed to the vertex-mode step 1
        (the Section 4.2 improvement that avoids repeated ``log* n`` terms).
    class_key:
        Optional state key identifying the Legal-Color recursion subgraph
        (edge mode only; see
        :class:`~repro.primitives.kuhn_defective_edge.KuhnDefectiveEdgeColoringPhase`).
    output_key:
        The state key the ``psi``-color ends up in.

    Returns
    -------
    (pipeline, info):
        The runnable pipeline and the static guarantees of the coloring it
        produces.
    """
    if b < 1 or p < 1 or Lambda < 1:
        raise InvalidParameterError("b, p and Lambda must all be at least 1")
    c = independence_bound(c)
    if b * p > Lambda:
        raise InvalidParameterError(
            f"Procedure Defective-Color requires b * p <= Lambda (got {b * p} > {Lambda})"
        )
    if mode not in ("vertex", "edge"):
        raise InvalidParameterError(f"unknown mode {mode!r}")

    phi_key = "_dc_phi"
    if mode == "vertex":
        phi_defect_target = Lambda // (b * p)
        phi_pipeline, phi_palette = defective_coloring_pipeline(
            n=n,
            degree_bound=Lambda,
            target_defect=phi_defect_target,
            initial_palette=auxiliary_palette,
            input_key=auxiliary_key,
            output_key=phi_key,
        )
        phases = list(phi_pipeline.phases)
        phi_defect_bound = phi_defect_target
    else:
        edge_phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=b * p,
            degree_bound=Lambda,
            output_key=phi_key,
            class_key=class_key,
        )
        phases = [edge_phase]
        phi_palette = edge_phase.output_palette
        phi_defect_bound = edge_phase.defect_bound

    psi_phase = PsiSelectionPhase(
        p=p, phi_key=phi_key, phi_palette=phi_palette, output_key=output_key
    )
    phases.append(psi_phase)

    info = DefectiveColorInfo(
        p=p,
        phi_palette=phi_palette,
        phi_defect_bound=phi_defect_bound,
        psi_defect_bound=psi_defect_bound(b, p, Lambda, c, mode),
        output_key=output_key,
    )
    return PhasePipeline(phases, name="defective-color"), info


def run_defective_color(
    network: FastNetwork,
    b: int,
    p: int,
    c: int,
    Lambda: Optional[int] = None,
    mode: str = "vertex",
    engine: Optional[str] = None,
) -> Tuple[Dict[Hashable, int], DefectiveColorInfo, RunMetrics]:
    """Convenience wrapper: run Procedure Defective-Color on a whole network.

    ``network`` is a (possibly CSR-masked)
    :class:`~repro.local_model.fast_network.FastNetwork`.
    Returns the ``psi``-coloring (a mapping from node to a color in
    ``{1, ..., p}``), the static guarantees, and the measured metrics.
    ``engine`` selects the execution path (see
    :mod:`repro.local_model.engine`).
    """
    network = fast_view(network)
    if Lambda is None:
        Lambda = max(1, network.max_degree)
    pipeline, info = defective_color_pipeline(
        n=network.num_nodes, b=b, p=p, Lambda=Lambda, c=c, mode=mode
    )
    result = make_scheduler(network, engine=engine).run(pipeline)
    colors = result.extract(info.output_key)
    return colors, info, result.metrics
