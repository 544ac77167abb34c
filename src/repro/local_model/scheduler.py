"""The synchronous round scheduler.

The scheduler executes a phase (or a pipeline of phases) on a
:class:`~repro.local_model.fast_network.FastNetwork`, one Python callback
per node per round: in every round it collects the outgoing messages of all
live nodes, validates that messages only travel over edges of the network,
delivers them, and lets every node process its inbox.  Each node's
:class:`~repro.local_model.algorithm.LocalView` lists its neighbors in
unique-id order (the rows of :meth:`FastNetwork.ascending_rows`), whatever
order the view's CSR rows are in.
It accumulates :class:`~repro.local_model.metrics.RunMetrics` -- the exact
quantities (rounds, message sizes) the paper's theorems bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Mapping, Optional, Union

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.local_model.algorithm import (
    LocalComputationPhase,
    LocalView,
    PhasePipeline,
    SynchronousPhase,
)
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.local_model.messages import payload_size_words
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.state_table import StateTable


@dataclass
class PhaseResult:
    """The outcome of running a phase or pipeline.

    Attributes
    ----------
    states:
        The final per-node state dictionaries, keyed by node identifier.
    metrics:
        Accumulated round / message / bandwidth metrics.
    """

    states: Dict[Hashable, Dict[str, Any]]
    metrics: RunMetrics = field(default_factory=RunMetrics)

    def extract(self, key: str) -> Dict[Hashable, Any]:
        """Collect ``state[key]`` for every node (raises ``KeyError`` if absent)."""
        return {node: state[key] for node, state in self.states.items()}


class Scheduler:
    """Executes synchronous phases on a network.

    Parameters
    ----------
    network:
        The communication graph.  Every node's
        :class:`~repro.local_model.algorithm.LocalView` exposes the globally
        known ``n`` and ``max_degree`` as ``view.globals``.
    """

    def __init__(self, network: FastNetwork) -> None:
        self._fast = fast_view(network)
        self._globals: Dict[str, Any] = {
            "n": network.num_nodes,
            "max_degree": network.max_degree,
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
    ) -> PhaseResult:
        """Run a phase or a pipeline to completion and return its result.

        ``initial_states`` seeds the node state dictionaries (they are copied)
        so that outputs of a previous run -- for instance an auxiliary
        coloring -- can be fed into a later algorithm, mirroring how the paper
        reuses the coloring ``rho`` across procedures.
        """
        fast = self._fast
        states: Dict[Hashable, Dict[str, Any]] = {node_id: {} for node_id in fast.order}
        if initial_states:
            for node_id, seed in initial_states.items():
                if node_id in states:
                    states[node_id].update(dict(seed))

        global_values = dict(self._globals)
        views = {
            node_id: LocalView(
                node_id=node_id,
                unique_id=unique_id,
                neighbors=neighbors,
                globals=global_values,
            )
            for node_id, unique_id, neighbors in zip(
                fast.order, fast.unique_ids.tolist(), fast.ascending_rows().neighbor_ids
            )
        }

        metrics = RunMetrics()
        phases = algorithm.phases if isinstance(algorithm, PhasePipeline) else (algorithm,)
        for phase in phases:
            started = time.perf_counter()
            phase_metrics = self._run_single_phase(phase, states, views)
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)

        return PhaseResult(states=states, metrics=metrics)

    def run_table(self, algorithm, table):
        """Run with a :class:`~repro.local_model.state_table.StateTable` state.

        The reference scheduler has no columnar execution path -- this is the
        exact dict-view boundary: the table is materialized into per-node
        dictionaries (rows follow the network's deterministic node order),
        :meth:`run` executes unchanged, and the final states are re-absorbed
        (:meth:`StateTable.from_dicts` rejects, naming the key, a final state
        that is not an ``int64`` int on every node).  Returns
        ``(table, metrics)`` like the other engines' ``run_table``.
        """
        order = self._fast.order
        if table.num_rows != len(order):
            raise SimulationError(
                f"state table has {table.num_rows} rows, network has "
                f"{len(order)} nodes"
            )
        result = self.run(algorithm, initial_states=table.to_mapping(order))
        final = StateTable.from_dicts([result.states[node] for node in order])
        return final, result.metrics

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _run_single_phase(
        self,
        phase: SynchronousPhase,
        states: Dict[Hashable, Dict[str, Any]],
        views: Dict[Hashable, LocalView],
    ) -> PhaseMetrics:
        phase_metrics = PhaseMetrics(name=phase.name)

        for node_id, state in states.items():
            phase.initialize(views[node_id], state)

        if isinstance(phase, LocalComputationPhase):
            for node_id, state in states.items():
                phase.compute(views[node_id], state)
            for node_id, state in states.items():
                phase.finalize(views[node_id], state)
            return phase_metrics

        if not states:
            return phase_metrics

        round_limit = phase.max_rounds(self._fast.num_nodes, self._fast.max_degree)

        halted = dict.fromkeys(states, False)
        round_index = 0
        while not all(halted.values()):
            round_index += 1
            if round_index > round_limit:
                raise RoundLimitExceeded(
                    f"phase {phase.name!r} exceeded its round budget of {round_limit}"
                )

            # Collect and validate outgoing messages from live nodes.
            inboxes: Dict[Hashable, Dict[Hashable, Any]] = {
                node_id: {} for node_id in states
            }
            for node_id, state in states.items():
                if halted[node_id]:
                    continue
                view = views[node_id]
                outbox = phase.send(view, state, round_index) or {}
                for receiver, payload in outbox.items():
                    if receiver not in view.neighbors:
                        raise SimulationError(
                            f"node {node_id!r} attempted to message non-neighbor {receiver!r}"
                        )
                    inboxes[receiver][node_id] = payload
                    phase_metrics.record_message(payload_size_words(payload))

            # Deliver and process.
            for node_id, state in states.items():
                if halted[node_id]:
                    continue
                if phase.receive(views[node_id], state, inboxes[node_id], round_index):
                    halted[node_id] = True

            phase_metrics.rounds = round_index

        for node_id, state in states.items():
            phase.finalize(views[node_id], state)
        return phase_metrics
