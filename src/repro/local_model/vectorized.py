"""The array engine: numpy steps and fused kernels over the CSR arrays.

The reference scheduler (:mod:`repro.local_model.scheduler`) executes one
Python callback per node per round.  For the paper's *pure-color* phases --
Linial's set-system recoloring, the Kuhn-Wattenhofer block reduction, the
defective polynomial steps, the ``psi``-selection loop, the Corollary 5.4
edge ranking, Luby -- a round's messages are just the nodes' current colors,
so the entire round is expressible as array arithmetic over the CSR
adjacency of a :class:`~repro.local_model.fast_network.FastNetwork`.

:class:`VectorizedScheduler` runs a phase that implements ``vector_run(ctx)``
as that array program, where ``ctx`` is the :class:`VectorContext` defined
here.  The kernel steps reach the phase as ``ctx.kernels``: the fused C
kernels of :mod:`repro.local_model.kernels` when that backend resolved, else
the module of their numpy steps (``kernels._numpy``, also under
``REPRO_KERNEL_BACKEND=none``).  A phase calls its step there
unconditionally, so validation, metric charging and state writes live once,
in ``vector_run``.  Every phase the package
ships has a ``vector_run``; a pipeline holding a phase without one (a
user-defined phase) is rejected before any phase runs -- run it with
``engine="reference"``.

The contract is the reference scheduler's, for outputs and metrics:

* the phase's output keys must hold *identical* values to what the reference
  scheduler produces (private scratch keys may differ);
* the phase's :class:`~repro.local_model.metrics.PhaseMetrics` must be
  identical -- rounds, message count, total words, maximum message size.

``tests/test_engine_equivalence.py`` and the golden fixtures enforce both,
with kernels on and off, across the whole algorithm zoo.  The metric side is
made hard to get wrong by the charging helpers on :class:`VectorContext`:
a uniform broadcast phase (every live node announces one scalar per round,
all nodes halt together) is fully described by its round count.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError, RoundLimitExceeded, SimulationError
from repro.local_model import kernels
from repro.local_model.algorithm import PhasePipeline, SynchronousPhase
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.scheduler import PhaseResult
from repro.local_model.state_table import StateTable


class VectorContext:
    """Everything a ``vector_run`` kernel may touch.

    Node states live in :attr:`table`, a
    :class:`~repro.local_model.state_table.StateTable` in the network's
    dense node order; the accessors below are array reads and writes of its
    columns.

    Attributes
    ----------
    fast:
        The CSR view the phase runs on.
    table:
        The node states.
    metrics:
        The phase's metrics object, filled in through the charging helpers.
    round_limit:
        The phase's round budget (its ``max_rounds``);
        :meth:`check_round_budget` enforces it with the scheduler's exact
        exception.
    kernels:
        The kernel provider a phase calls for its inner steps: the C backend
        (see :mod:`repro.local_model.kernels`) or the numpy steps.
    """

    def __init__(
        self,
        fast: FastNetwork,
        table: StateTable,
        metrics: PhaseMetrics,
        round_limit: int,
        phase_name: str,
        kernels: Any = kernels._numpy,
    ) -> None:
        self.fast = fast
        self.table = table
        self.metrics = metrics
        self.round_limit = round_limit
        self.phase_name = phase_name
        self.kernels = kernels

    # ------------------------------------------------------------------ #
    # State columns
    # ------------------------------------------------------------------ #

    def column(self, key: str) -> np.ndarray:
        """Gather ``state[key]`` over all nodes into a fresh ``int64`` array."""
        return self.table.get_ints(key)

    def unique_ids(self) -> np.ndarray:
        """The nodes' distinct identity numbers (``int64``, dense order)."""
        return self.fast.unique_ids

    def write_column(self, key: str, values: np.ndarray) -> None:
        """Write ``values`` into ``state[key]`` (an int column)."""
        self.table.set_ints(key, values)

    def write_value(self, key: str, value: int) -> None:
        """Write the same int into ``state[key]`` on every node."""
        self.table.fill_int(key, value)

    # ------------------------------------------------------------------ #
    # Metric charging
    # ------------------------------------------------------------------ #

    def check_round_budget(self, rounds: int) -> None:
        """Raise exactly like the scalar engines when ``rounds`` exceeds the budget."""
        if rounds > self.round_limit:
            raise RoundLimitExceeded(
                f"phase {self.phase_name!r} exceeded its round budget of "
                f"{self.round_limit}"
            )

    def charge_uniform_broadcast(self, rounds: int, payload_words: int = 1) -> None:
        """Account ``rounds`` rounds in which *every* node broadcasts one payload.

        This is the exact cost the scalar engines measure for a phase in
        which all nodes stay live until a common final round and broadcast a
        ``payload_words``-word payload each round: ``degree`` messages per
        node per round.
        """
        self.check_round_budget(rounds)
        nnz = len(self.fast.indices)
        metrics = self.metrics
        metrics.rounds = rounds
        metrics.messages = rounds * nnz
        metrics.total_words = rounds * nnz * payload_words
        metrics.max_message_words = payload_words if nnz else 0

    def charge_silent_round(self) -> None:
        """Account the single silent round of a degenerate (no-op) phase."""
        self.check_round_budget(1)
        self.metrics.rounds = 1

    def charge(
        self, rounds: int, messages: int, total_words: int, max_message_words: int
    ) -> None:
        """Account explicitly computed metrics (non-uniform phases)."""
        self.check_round_budget(rounds)
        metrics = self.metrics
        metrics.rounds = rounds
        metrics.messages = messages
        metrics.total_words = total_words
        metrics.max_message_words = max_message_words


def check_color_range(colors: np.ndarray, palette: int, template: str) -> None:
    """Apply the scalar ``initialize`` palette validation to a color column.

    ``template`` is the exact exception text of the scalar counterpart with
    ``{color}`` / ``{palette}`` placeholders; the first out-of-range node in
    dense order raises, matching the reference scheduler's iteration order.
    """
    bad = (colors < 1) | (colors > palette)
    if bad.any():
        offender = int(colors[np.flatnonzero(bad)[0]])
        raise InvalidParameterError(
            template.format(color=offender, palette=palette)
        )


class VectorizedScheduler:
    """Runs phases as ``vector_run`` array programs.

    Parameters
    ----------
    network:
        The communication graph, a (possibly CSR-masked)
        :class:`FastNetwork`, used as-is, so recursion levels run on their
        filtered views without any rebuild.

    Every phase runs its ``vector_run`` with the kernel provider as
    ``ctx.kernels`` (the resolved C backend, else the numpy steps); a phase
    without ``vector_run`` makes :meth:`run_table` raise
    :class:`~repro.exceptions.InvalidParameterError` before any phase runs
    (such a phase runs on ``engine="reference"``).

    :meth:`run_table` is the engine's only execution path (:meth:`run`
    wraps it): the :class:`~repro.local_model.state_table.StateTable`
    columns feed the kernels directly; no per-node state dictionary or
    :class:`~repro.local_model.algorithm.LocalView` is ever built.
    """

    def __init__(self, network: FastNetwork) -> None:
        self._fast: FastNetwork = fast_view(network)
        self._backend = kernels.get_backend()
        self._kernels = kernels.provider()

    @property
    def kernel_backend_name(self) -> Optional[str]:
        """``"cext"`` / ``None`` -- the backend kernels run on."""
        return self._backend.name if self._backend is not None else None

    @staticmethod
    def _plan(
        algorithm: Union[SynchronousPhase, PhasePipeline],
    ) -> Tuple[Tuple[SynchronousPhase, Any], ...]:
        """The ``(phase, vector_run)`` pairs of ``algorithm``, checked up front."""
        phases = algorithm.phases if isinstance(algorithm, PhasePipeline) else (algorithm,)
        plan = tuple((phase, getattr(phase, "vector_run", None)) for phase in phases)
        for phase, vector_run in plan:
            if vector_run is None:
                raise InvalidParameterError(
                    f"phase {phase.name!r} has no vector_run; run it with engine='reference'"
                )
        return plan

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_vector_phase(
        self, phase: SynchronousPhase, vector_run, table: StateTable
    ) -> PhaseMetrics:
        fast = self._fast
        phase_metrics = PhaseMetrics(name=phase.name)
        if fast.num_nodes == 0:
            return phase_metrics
        round_limit = phase.max_rounds(fast.num_nodes, fast.max_degree)
        vector_run(
            VectorContext(fast, table, phase_metrics, round_limit, phase.name, self._kernels)
        )
        return phase_metrics

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
    ) -> PhaseResult:
        """Same contract as :meth:`Scheduler.run`, executed through :meth:`run_table`.

        The seeds become a :class:`StateTable` (identifiers outside the
        network are ignored; a seed the table cannot hold raises
        :class:`~repro.exceptions.InvalidParameterError`, see
        :meth:`StateTable.from_dicts`) and the final table is materialized
        as the identifier-keyed state dictionaries.
        """
        order = self._fast.order
        table = StateTable.from_mapping(initial_states or {}, order)
        table, metrics = self.run_table(algorithm, table)
        return PhaseResult(states=table.to_mapping(order), metrics=metrics)

    def run_table(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        table: StateTable,
    ) -> Tuple[StateTable, RunMetrics]:
        """Run a phase or pipeline with a :class:`StateTable` as node state.

        ``table`` rows must be in this scheduler's dense node order (the
        ``order`` of its :class:`~repro.local_model.fast_network.FastNetwork`);
        the phases operate directly on the table's columns, and the table is
        returned together with the run's metrics.
        """
        fast = self._fast
        if table.num_rows != fast.num_nodes:
            raise SimulationError(
                f"state table has {table.num_rows} rows, network has "
                f"{fast.num_nodes} nodes"
            )
        plan = self._plan(algorithm)
        metrics = RunMetrics()
        for phase, vector_run in plan:
            started = time.perf_counter()
            phase_metrics = self._run_vector_phase(phase, vector_run, table)
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)
        return table, metrics
