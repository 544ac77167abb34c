"""The batched round engine: a drop-in, fast alternative to the scheduler.

:class:`BatchedScheduler` exposes the exact constructor and :meth:`run` API of
:class:`~repro.local_model.scheduler.Scheduler` and produces *bit-identical*
results -- the same final node states, the same round counts, and the same
:class:`~repro.local_model.metrics.RunMetrics` (tests/test_engine_equivalence.py
locks this down).  It differs purely in how a round is executed:

* the network is compiled once into a :class:`~repro.local_model.fast_network.FastNetwork`
  (dense indices, CSR adjacency, pre-resolved unique-id ordering);
* node states, views and inboxes live in flat lists indexed by dense node
  index; inbox dictionaries are allocated once per phase and cleared in place
  instead of being re-created every round;
* only *live* (non-halted) nodes are visited -- the reference scheduler scans
  every node every round;
* phases declaring :class:`~repro.local_model.algorithm.BroadcastPhase`
  build their per-round payload once, deliver it by direct writes into the
  neighbors' inboxes, and are charged ``degree`` messages arithmetically --
  no per-neighbor outbox dictionaries, no per-message size recomputation;
* message validation uses per-node neighbor-identifier sets (``O(1)``)
  instead of an ``O(degree)`` adjacency scan.

Phases must not retain the inbox mapping passed to ``receive`` beyond the
call (no phase in this package does); broadcast payloads are shared objects
and must not be mutated by receivers.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple, Union

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.local_model.algorithm import (
    SILENT,
    LocalComputationPhase,
    LocalView,
    PhasePipeline,
    SynchronousPhase,
)
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.messages import payload_size_words
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.network import Network
from repro.local_model.scheduler import PhaseResult
from repro.local_model.state_table import StateTable

#: Schedulers accept either representation; a FastNetwork is used as-is, so
#: CSR-masked sub-networks (FastNetwork.filtered) run without any rebuild.
NetworkLike = Union[Network, FastNetwork]

#: Payload types whose size is one word by definition (the common case for
#: broadcast phases, which announce a single color); checked by exact class so
#: the fallback to :func:`payload_size_words` stays authoritative.
_SCALAR_TYPES = (int, str, bool, float, type(None))


class BatchedScheduler:
    """Executes synchronous phases over the flat-array representation.

    Parameters are identical to :class:`~repro.local_model.scheduler.Scheduler`:

    network:
        The communication graph -- a :class:`Network` or a (possibly
        CSR-masked) :class:`FastNetwork`.
    globals_extra:
        Additional globally known values exposed to every node's
        :class:`~repro.local_model.algorithm.LocalView`.
    round_limit_factor:
        Multiplier applied to each phase's ``max_rounds`` safety bound.
    """

    def __init__(
        self,
        network: NetworkLike,
        globals_extra: Optional[Mapping[str, Any]] = None,
        round_limit_factor: int = 1,
    ) -> None:
        self._fast: FastNetwork = fast_view(network)
        self._globals: Dict[str, Any] = {
            "n": self._fast.num_nodes,
            "max_degree": self._fast.max_degree,
        }
        if globals_extra:
            self._globals.update(globals_extra)
        if round_limit_factor < 1:
            raise SimulationError("round_limit_factor must be at least 1")
        self._round_limit_factor = round_limit_factor

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> Network:
        """The :class:`Network` this scheduler runs on.

        For a scheduler constructed from a CSR-masked
        :class:`~repro.local_model.fast_network.FastNetwork` the network is
        materialized (and cached) on first access; execution itself never
        needs it.
        """
        return self._fast.to_network()

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
        globals_override: Optional[Mapping[str, Any]] = None,
    ) -> PhaseResult:
        """Run a phase or a pipeline to completion and return its result.

        Same contract as :meth:`Scheduler.run`; ``initial_states`` entries are
        copied into the per-node state dictionaries before the first phase.
        """
        fast = self._fast
        n = fast.num_nodes
        order = fast.order
        index_of = fast.index_of

        states: List[Dict[str, Any]] = [{} for _ in range(n)]
        if initial_states:
            for node_id, seed in initial_states.items():
                index = index_of.get(node_id)
                if index is not None:
                    states[index].update(dict(seed))

        metrics = self._execute(algorithm, states, globals_override)
        return PhaseResult(
            states={order[i]: states[i] for i in range(n)},
            metrics=metrics,
        )

    def run_table(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        table: StateTable,
        globals_override: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[StateTable, RunMetrics]:
        """Run a phase or pipeline with a :class:`StateTable` as node state.

        ``table`` rows must be in this scheduler's dense node order (the
        ``order`` of its :class:`~repro.local_model.fast_network.FastNetwork`);
        the input table is consumed and a table holding the final states is
        returned together with the run's metrics.  The result is
        *bit-identical* (up to the exact dict materialization of
        :meth:`StateTable.to_dicts`) to seeding :meth:`run` with the table's
        dict view -- that is precisely how this base implementation executes;
        the vectorized scheduler overrides it to keep the columns native.
        """
        fast = self._fast
        if table.num_rows != fast.num_nodes:
            raise SimulationError(
                f"state table has {table.num_rows} rows, network has "
                f"{fast.num_nodes} nodes"
            )
        states = table.to_dicts()
        metrics = self._execute(algorithm, states, globals_override)
        return StateTable.from_dicts(states), metrics

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolved_globals(
        self, globals_override: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        global_values = dict(self._globals)
        if globals_override:
            global_values.update(globals_override)
        return global_values

    def _build_views(self, global_values: Mapping[str, Any]) -> List[LocalView]:
        fast = self._fast
        order = fast.order
        unique_ids = fast.unique_ids.tolist()
        neighbor_ids = fast.neighbor_ids
        return [
            LocalView(
                node_id=order[i],
                unique_id=unique_ids[i],
                neighbors=neighbor_ids[i],
                globals=global_values,
            )
            for i in range(fast.num_nodes)
        ]

    def _execute(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        states: List[Dict[str, Any]],
        globals_override: Optional[Mapping[str, Any]],
    ) -> RunMetrics:
        views = self._build_views(self._resolved_globals(globals_override))
        metrics = RunMetrics()
        phases = algorithm.phases if isinstance(algorithm, PhasePipeline) else (algorithm,)
        for phase in phases:
            started = time.perf_counter()
            phase_metrics = self._run_single_phase(phase, states, views)
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)
        return metrics

    def _run_single_phase(
        self,
        phase: SynchronousPhase,
        states: List[Dict[str, Any]],
        views: List[LocalView],
    ) -> PhaseMetrics:
        fast = self._fast
        n = fast.num_nodes
        phase_metrics = PhaseMetrics(name=phase.name)

        initialize = phase.initialize
        for i in range(n):
            initialize(views[i], states[i])

        if isinstance(phase, LocalComputationPhase):
            compute = phase.compute
            for i in range(n):
                compute(views[i], states[i])
            finalize = phase.finalize
            for i in range(n):
                finalize(views[i], states[i])
            return phase_metrics

        if n == 0:
            return phase_metrics

        round_limit = self._round_limit_factor * phase.max_rounds(
            fast.num_nodes, fast.max_degree
        )

        # Per-phase flat structures: one reusable inbox dictionary per node
        # and, per node, the list of its neighbors' inboxes in delivery order.
        # Zipping the per-node pieces into single tuples keeps the hot loops
        # down to one index plus one unpack per node.
        inboxes: List[Dict[Hashable, Any]] = [{} for _ in range(n)]
        indptr, indices = fast.indptr.tolist(), fast.indices.tolist()
        inbox_targets = [
            [inboxes[j] for j in indices[indptr[i] : indptr[i + 1]]] for i in range(n)
        ]
        order = fast.order
        neighbor_id_sets = fast.neighbor_id_sets
        index_of = fast.index_of
        send_context = list(zip(views, states, inbox_targets, order, neighbor_id_sets))
        receive_context = list(zip(views, states, inboxes))

        use_broadcast = getattr(phase, "supports_broadcast", False)
        broadcast = phase.broadcast if use_broadcast else None
        send = phase.send
        receive = phase.receive

        live = list(range(n))
        round_index = 0
        while live:
            round_index += 1
            if round_index > round_limit:
                raise RoundLimitExceeded(
                    f"phase {phase.name!r} exceeded its round budget of {round_limit}"
                )

            # --- Send: collect, validate, deliver, and account messages. --- #
            messages = phase_metrics.messages
            total_words = phase_metrics.total_words
            max_words = phase_metrics.max_message_words
            if use_broadcast:
                for i in live:
                    view, state, targets, sender, _ = send_context[i]
                    payload = broadcast(view, state, round_index)
                    if payload is SILENT:
                        continue
                    degree = len(targets)
                    if not degree:
                        continue
                    for inbox in targets:
                        inbox[sender] = payload
                    if type(payload) in _SCALAR_TYPES:
                        size = 1
                    else:
                        size = payload_size_words(payload)
                    messages += degree
                    total_words += degree * size
                    if size > max_words:
                        max_words = size
            else:
                for i in live:
                    view, state, _, sender, neighbor_set = send_context[i]
                    outbox = send(view, state, round_index) or {}
                    if not outbox:
                        continue
                    for receiver, payload in outbox.items():
                        if receiver not in neighbor_set:
                            raise SimulationError(
                                f"node {sender!r} attempted to message non-neighbor {receiver!r}"
                            )
                        inboxes[index_of[receiver]][sender] = payload
                        size = payload_size_words(payload)
                        messages += 1
                        total_words += size
                        if size > max_words:
                            max_words = size
            phase_metrics.messages = messages
            phase_metrics.total_words = total_words
            phase_metrics.max_message_words = max_words

            # --- Receive: process inboxes, clear them, drop halted nodes. --- #
            still_live = []
            still_live_append = still_live.append
            for i in live:
                view, state, inbox = receive_context[i]
                halted = receive(view, state, inbox, round_index)
                if inbox:
                    inbox.clear()
                if not halted:
                    still_live_append(i)
            live = still_live

            phase_metrics.rounds = round_index

        finalize = phase.finalize
        for i in range(n):
            finalize(views[i], states[i])
        return phase_metrics
