"""Synchronous message-passing substrate (the LOCAL / CONGEST model).

This package implements the execution model the paper assumes: an ``n``-vertex
network in which every vertex hosts a processor with a unique identifier,
communication proceeds in synchronous rounds, and in each round every vertex
may send one message to each of its neighbors.  The running time of an
algorithm is the number of rounds until every vertex has terminated.

The main entry points are:

* :class:`~repro.local_model.fast_network.FastNetwork` -- the communication
  graph, the one graph type both engines run on: ``indptr`` / ``indices`` /
  ``degrees`` / ``unique_ids`` are ``int64`` numpy arrays, one copy each,
  and :meth:`~repro.local_model.fast_network.FastNetwork.from_adjacency`
  builds one from a hand-written adjacency mapping,
* :class:`~repro.local_model.algorithm.SynchronousPhase` -- the per-node
  protocol abstraction (one phase of an algorithm),
* :class:`~repro.local_model.scheduler.Scheduler` -- executes phases round by
  round and accumulates :class:`~repro.local_model.metrics.RunMetrics`,
* :class:`~repro.local_model.vectorized.VectorizedScheduler` -- the default
  engine: the paper's color phases run over the CSR arrays and the columns
  of a :class:`~repro.local_model.state_table.StateTable` (its only
  node-state representation; ``run`` wraps ``run_table``), with fused
  C/OpenMP kernels (see :mod:`repro.local_model.kernels`) for their inner
  steps when the backend resolves and numpy otherwise; it runs only phases
  with a ``vector_run``, so a user-defined phase without one runs on the
  reference scheduler (select an engine via
  :func:`~repro.local_model.engine.make_scheduler` / ``engine=`` arguments),
* :func:`~repro.local_model.line_graph_sim.simulate_on_line_graph` -- the
  Lemma 5.2 simulation of an algorithm for ``L(G)`` on the network ``G``.
"""

from repro.local_model.algorithm import (
    SILENT,
    BroadcastPhase,
    LocalView,
    PhasePipeline,
    SynchronousPhase,
)
from repro.local_model import kernels
from repro.local_model.engine import (
    available_engines,
    default_engine,
    make_scheduler,
    resolve_engine,
    set_default_engine,
    use_engine,
)
from repro.local_model.fast_network import FastNetwork, fast_view, node_sort_key
from repro.local_model.line_csr import LineGraphMeta, build_line_graph_fast, line_meta_for
from repro.local_model.messages import Message, payload_size_words
from repro.local_model.metrics import RunMetrics
from repro.local_model.scheduler import PhaseResult, Scheduler
from repro.local_model.state_table import StateTable
from repro.local_model.vectorized import VectorContext, VectorizedScheduler
from repro.local_model.line_graph_sim import (
    LineGraphSimulationResult,
    apply_lemma_5_2_accounting,
    simulate_on_line_graph,
)

__all__ = [
    "SILENT",
    "BroadcastPhase",
    "FastNetwork",
    "LineGraphMeta",
    "LineGraphSimulationResult",
    "LocalView",
    "Message",
    "PhasePipeline",
    "PhaseResult",
    "RunMetrics",
    "Scheduler",
    "StateTable",
    "SynchronousPhase",
    "VectorContext",
    "VectorizedScheduler",
    "apply_lemma_5_2_accounting",
    "available_engines",
    "build_line_graph_fast",
    "default_engine",
    "fast_view",
    "kernels",
    "line_meta_for",
    "make_scheduler",
    "node_sort_key",
    "payload_size_words",
    "resolve_engine",
    "set_default_engine",
    "simulate_on_line_graph",
    "use_engine",
]
