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
here.  The fused kernels of :mod:`repro.local_model.kernels` reach the phase
as ``ctx.kernels`` (``None`` when no backend resolved or
``REPRO_KERNEL_BACKEND=none``): a phase with a fused kernel calls it for its
inner step and runs its numpy step otherwise, so validation, metric charging
and state writes live once, in ``vector_run``.  Every phase the package
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
        The fused-kernel backend (see :mod:`repro.local_model.kernels`), or
        ``None`` when kernels are off; a phase calls it for its inner step.
    """

    def __init__(
        self,
        fast: FastNetwork,
        table: StateTable,
        metrics: PhaseMetrics,
        round_limit: int,
        phase_name: str,
        kernels: Any = None,
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

    def write_value(self, key: str, value: Any) -> None:
        """Write the same (immutable) value into ``state[key]`` everywhere."""
        if type(value) is int:
            self.table.fill_int(key, value)
        else:
            self.table.fill_object(key, value)

    def copy_key(self, source_key: str, target_key: str) -> None:
        """``state[target] = state[source]`` on every node, kind-preserving."""
        self.table.copy_column(source_key, target_key)

    # ------------------------------------------------------------------ #
    # Adjacency gathers
    # ------------------------------------------------------------------ #

    def gather_neighbors(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The concatenated neighbor lists of ``nodes``.

        Returns ``(local_rows, neighbors)``: CSR entry ``e`` of the result is
        the edge from ``nodes[local_rows[e]]`` to dense index
        ``neighbors[e]``.  Neighbor order within a node is the deterministic
        network order, matching the scalar engines' inbox iteration order.
        """
        fast = self.fast
        lengths = fast.degrees[nodes]
        total = int(lengths.sum())
        local_rows = np.repeat(np.arange(len(nodes), dtype=np.int64), lengths)
        if total == 0:
            return local_rows, np.zeros(0, dtype=np.int64)
        starts = np.repeat(fast.indptr[nodes], lengths)
        offsets = np.zeros(len(nodes), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
        return local_rows, fast.indices[starts + within]

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

    Dispatch is resolved **once per pipeline** by :meth:`_compile` (the plan
    is cached on the pipeline object), not per phase execution.  Every
    phase runs its ``vector_run`` with the resolved kernel backend as
    ``ctx.kernels``; a phase without ``vector_run`` makes :meth:`_compile`
    raise :class:`~repro.exceptions.InvalidParameterError` before any phase
    runs (such a phase runs on ``engine="reference"``).

    :meth:`run_table` is the engine's only execution path (:meth:`run`
    wraps it): the :class:`~repro.local_model.state_table.StateTable`
    columns feed the kernels directly; no per-node state dictionary or
    :class:`~repro.local_model.algorithm.LocalView` is ever built.
    """

    def __init__(self, network: FastNetwork) -> None:
        self._fast: FastNetwork = fast_view(network)
        self._backend = kernels.get_backend()

    @property
    def kernel_backend_name(self) -> Optional[str]:
        """``"cext"`` / ``None`` -- the backend kernels run on."""
        return self._backend.name if self._backend is not None else None

    # ------------------------------------------------------------------ #
    # Pipeline compilation (one-time dispatch resolution)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_vector_run(phase: SynchronousPhase):
        vector_run = getattr(phase, "vector_run", None)
        if vector_run is None:
            raise InvalidParameterError(
                f"phase {phase.name!r} has no vector_run; "
                "run it with engine='reference'"
            )
        return vector_run

    @classmethod
    def _compile(
        cls, algorithm: Union[SynchronousPhase, PhasePipeline]
    ) -> Tuple[Tuple[SynchronousPhase, Any], ...]:
        """The ``(phase, vector_run)`` execution plan of ``algorithm``.

        For a :class:`PhasePipeline` the plan is computed once and cached on
        the pipeline object (dispatch does not depend on the scheduler
        instance), so repeated runs of the same pipeline skip re-resolution.
        """
        if isinstance(algorithm, PhasePipeline):
            phases = algorithm.phases
            cached = getattr(algorithm, "_vector_plan", None)
            if cached is not None and cached[0] == phases:
                return cached[1]
            plan = tuple((phase, cls._resolve_vector_run(phase)) for phase in phases)
            algorithm._vector_plan = (phases, plan)
            return plan
        return ((algorithm, cls._resolve_vector_run(algorithm)),)

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
            VectorContext(fast, table, phase_metrics, round_limit, phase.name, self._backend)
        )
        return phase_metrics

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
    ) -> PhaseResult:
        """Same contract as :meth:`Scheduler.run`, executed through :meth:`run_table`.

        The seeds become a :class:`StateTable` (identifiers outside the
        network are ignored) and the final table is materialized as the
        identifier-keyed state dictionaries.
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
        plan = self._compile(algorithm)
        metrics = RunMetrics()
        for phase, vector_run in plan:
            started = time.perf_counter()
            phase_metrics = self._run_vector_phase(phase, vector_run, table)
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)
        return table, metrics


# --------------------------------------------------------------------------- #
# Shared polynomial helpers (used by the Linial / defective-step kernels)
# --------------------------------------------------------------------------- #


def digits_base_q(values: np.ndarray, q: int, num_digits: int) -> np.ndarray:
    """The ``num_digits`` least-significant base-``q`` digits of each value.

    Column ``j`` of the result holds digit ``j`` (the coefficient of ``x^j``),
    matching :func:`repro.primitives.numbers.base_q_digits`.
    """
    digits = np.empty((len(values), num_digits), dtype=np.int64)
    remaining = values.copy()
    for j in range(num_digits):
        digits[:, j] = remaining % q
        remaining //= q
    return digits


def poly_eval_columns(digits: np.ndarray, point: int, q: int) -> np.ndarray:
    """Evaluate every row's polynomial at the scalar ``point`` over ``GF(q)``.

    Horner's rule from the most significant coefficient, exactly like
    :func:`repro.primitives.numbers.poly_eval`.
    """
    values = digits[:, -1].copy()
    for j in range(digits.shape[1] - 2, -1, -1):
        values *= point
        values += digits[:, j]
        values %= q
    return values


def poly_eval_at_points(digits: np.ndarray, points: np.ndarray, q: int) -> np.ndarray:
    """Evaluate every row's polynomial at its own point over ``GF(q)``."""
    values = digits[:, -1].copy()
    for j in range(digits.shape[1] - 2, -1, -1):
        values *= points
        values += digits[:, j]
        values %= q
    return values


def first_free_slot(
    num_rows: int, limit: int, local_rows: np.ndarray, taken_slots: np.ndarray
) -> np.ndarray:
    """Per row, the smallest slot in ``0..limit-1`` not marked taken (-1 if none).

    ``taken_slots[e]`` marks slot ``taken_slots[e]`` of row ``local_rows[e]``
    as occupied; entries outside ``0..limit-1`` must be filtered by the
    caller.  This is the vectorized form of the scalar engines' "first free
    color among the neighbors" scan.
    """
    taken = np.zeros(num_rows * limit, dtype=bool)
    taken[local_rows * limit + taken_slots] = True
    free = ~taken.reshape(num_rows, limit)
    slots = np.argmax(free, axis=1)
    slots[~free.any(axis=1)] = -1
    return slots
