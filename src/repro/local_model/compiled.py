"""The compiled multi-core engine: kernel dispatch over the vectorized one.

:class:`CompiledScheduler` is :class:`~repro.local_model.vectorized.VectorizedScheduler`
with one extra dispatch layer: a vectorized phase whose class has a
registered fused kernel (see :mod:`repro.local_model.kernels`) runs through
the kernel backend (numba or the C/OpenMP extension, whichever the package
resolved); every other phase -- and *every* phase when no backend is
available -- runs the plain numpy ``vector_run`` unchanged, so results are
bit-identical to the ``"vectorized"`` engine in all configurations.

Accounting mirrors the vectorized engine's batched-fallback bookkeeping and
lives in one place, :meth:`CompiledScheduler.run_table` (``run`` is a thin
wrapper around it, so both entry points report the same):

* phases with a registered kernel that had to run on numpy because no
  backend resolved are counted per run in
  ``RunMetrics.compiled_fallback_phase_names`` and cumulatively on the
  scheduler (:attr:`compiled_fallback_phases` /
  :attr:`compiled_fallback_phase_names`);
* phases with no registered kernel are *not* counted -- numpy is their
  native compiled-engine path, exactly like non-vectorized phases are the
  batched engine's native path.
"""

from __future__ import annotations

from typing import List

from repro.local_model import kernels
from repro.local_model.algorithm import SynchronousPhase
from repro.local_model.vectorized import VectorContext, VectorizedScheduler


class CompiledScheduler(VectorizedScheduler):
    """Vectorized engine + fused-kernel dispatch with per-phase numpy fallback."""

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        #: Number of kernel-eligible phase executions that ran on numpy
        #: because no kernel backend was available (cumulative).
        self.compiled_fallback_phases: int = 0
        #: Names of those phases, in execution order.
        self.compiled_fallback_phase_names: List[str] = []
        self._backend = kernels.get_backend()

    @property
    def kernel_backend_name(self):
        """``"numba"`` / ``"cext"`` / ``None`` -- whatever the dispatch resolved."""
        return self._backend.name if self._backend is not None else None

    def _dispatch_vector_run(
        self, phase: SynchronousPhase, vector_run, context: VectorContext
    ) -> None:
        runner = kernels.runner_for(phase)
        if runner is None:
            vector_run(context)
            return
        if self._backend is None:
            self.compiled_fallback_phases += 1
            self.compiled_fallback_phase_names.append(phase.name)
            vector_run(context)
            return
        runner(phase, context, self._backend)

    # The per-run compiled-fallback names are diffed off the cumulative
    # scheduler list around the base-class execution, mirroring how the
    # vectorized engine threads its batched-fallback names into RunMetrics.

    def run_table(self, algorithm, table, *args, **kwargs):
        mark = len(self.compiled_fallback_phase_names)
        table, metrics = super().run_table(algorithm, table, *args, **kwargs)
        metrics.compiled_fallback_phase_names.extend(
            self.compiled_fallback_phase_names[mark:]
        )
        return table, metrics
