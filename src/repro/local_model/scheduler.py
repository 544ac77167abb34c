"""The synchronous round scheduler.

The scheduler executes a phase (or a pipeline of phases) on a
:class:`~repro.local_model.network.Network`: in every round it collects the
outgoing messages of all live nodes, validates that messages only travel over
edges of the network, delivers them, and lets every node process its inbox.
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
from repro.local_model.fast_network import NetworkLike, as_network
from repro.local_model.messages import payload_size_words
from repro.local_model.metrics import PhaseMetrics, RunMetrics
from repro.local_model.network import Network
from repro.local_model.node import Node
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
        The communication graph; a
        :class:`~repro.local_model.fast_network.FastNetwork` is materialized
        into the identical :class:`Network` once, here.
    globals_extra:
        Additional globally known values exposed to every node's
        :class:`~repro.local_model.algorithm.LocalView` (algorithm parameters,
        degree bounds, ...).  ``n`` and ``max_degree`` are always present.
    round_limit_factor:
        Multiplier applied to each phase's declared ``max_rounds`` safety
        bound before aborting (useful in stress tests).
    """

    def __init__(
        self,
        network: NetworkLike,
        globals_extra: Optional[Mapping[str, Any]] = None,
        round_limit_factor: int = 1,
    ) -> None:
        self.network: Network = as_network(network)
        self._globals: Dict[str, Any] = {
            "n": network.num_nodes,
            "max_degree": network.max_degree,
        }
        if globals_extra:
            self._globals.update(globals_extra)
        if round_limit_factor < 1:
            raise SimulationError("round_limit_factor must be at least 1")
        self._round_limit_factor = round_limit_factor

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        algorithm: Union[SynchronousPhase, PhasePipeline],
        initial_states: Optional[Mapping[Hashable, Dict[str, Any]]] = None,
        globals_override: Optional[Mapping[str, Any]] = None,
    ) -> PhaseResult:
        """Run a phase or a pipeline to completion and return its result.

        ``initial_states`` seeds the node state dictionaries (they are copied)
        so that outputs of a previous run -- for instance an auxiliary
        coloring -- can be fed into a later algorithm, mirroring how the paper
        reuses the coloring ``rho`` across procedures.
        """
        nodes = self.network.create_nodes()
        if initial_states:
            for node_id, seed in initial_states.items():
                if node_id in nodes:
                    nodes[node_id].state.update(dict(seed))

        global_values = dict(self._globals)
        if globals_override:
            global_values.update(globals_override)

        views = {
            node_id: LocalView(
                node_id=node_id,
                unique_id=node.unique_id,
                neighbors=node.neighbors,
                globals=global_values,
            )
            for node_id, node in nodes.items()
        }

        metrics = RunMetrics()
        phases = algorithm.phases if isinstance(algorithm, PhasePipeline) else (algorithm,)
        for phase in phases:
            started = time.perf_counter()
            phase_metrics = self._run_single_phase(phase, nodes, views)
            metrics.add_phase(phase_metrics)
            metrics.add_phase_seconds(phase_metrics.name, time.perf_counter() - started)

        return PhaseResult(
            states={node_id: node.state for node_id, node in nodes.items()},
            metrics=metrics,
        )

    def run_table(self, algorithm, table, globals_override=None):
        """Run with a :class:`~repro.local_model.state_table.StateTable` state.

        The reference scheduler has no columnar execution path -- this is the
        exact dict-view boundary: the table is materialized into per-node
        dictionaries (rows follow the network's deterministic node order),
        :meth:`run` executes unchanged, and the final states are re-absorbed.
        Returns ``(table, metrics)`` like the other engines' ``run_table``.
        """
        order = self.network.nodes()
        if table.num_rows != len(order):
            raise SimulationError(
                f"state table has {table.num_rows} rows, network has "
                f"{len(order)} nodes"
            )
        result = self.run(
            algorithm,
            initial_states=table.to_mapping(order),
            globals_override=globals_override,
        )
        final = StateTable.from_dicts([result.states[node] for node in order])
        return final, result.metrics

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _run_single_phase(
        self,
        phase: SynchronousPhase,
        nodes: Dict[Hashable, Node],
        views: Dict[Hashable, LocalView],
    ) -> PhaseMetrics:
        phase_metrics = PhaseMetrics(name=phase.name)

        for node in nodes.values():
            node.reset_for_phase()
        for node_id, node in nodes.items():
            phase.initialize(views[node_id], node.state)

        if isinstance(phase, LocalComputationPhase):
            for node_id, node in nodes.items():
                phase.compute(views[node_id], node.state)
                node.halted = True
            for node_id, node in nodes.items():
                phase.finalize(views[node_id], node.state)
            return phase_metrics

        if not nodes:
            return phase_metrics

        round_limit = self._round_limit_factor * phase.max_rounds(
            self.network.num_nodes, self.network.max_degree
        )

        round_index = 0
        while any(not node.halted for node in nodes.values()):
            round_index += 1
            if round_index > round_limit:
                raise RoundLimitExceeded(
                    f"phase {phase.name!r} exceeded its round budget of {round_limit}"
                )

            # Collect and validate outgoing messages from live nodes.
            inboxes: Dict[Hashable, Dict[Hashable, Any]] = {
                node_id: {} for node_id in nodes
            }
            for node_id, node in nodes.items():
                if node.halted:
                    continue
                outbox = phase.send(views[node_id], node.state, round_index) or {}
                for receiver, payload in outbox.items():
                    if not self.network.has_edge(node_id, receiver):
                        raise SimulationError(
                            f"node {node_id!r} attempted to message non-neighbor {receiver!r}"
                        )
                    inboxes[receiver][node_id] = payload
                    phase_metrics.record_message(payload_size_words(payload))

            # Deliver and process.
            for node_id, node in nodes.items():
                if node.halted:
                    continue
                halted = phase.receive(
                    views[node_id], node.state, inboxes[node_id], round_index
                )
                if halted:
                    node.halted = True

            phase_metrics.rounds = round_index

        for node_id, node in nodes.items():
            phase.finalize(views[node_id], node.state)
        return phase_metrics
