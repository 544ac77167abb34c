"""The per-node protocol abstraction.

A distributed algorithm in the synchronous message-passing model is described
as a sequence of *phases*.  Within a phase, every node repeatedly (a) sends
one message to each neighbor, and (b) processes the messages it received, in
lock-step rounds, until it halts.  The scheduler (see
:mod:`repro.local_model.scheduler`) drives all nodes through these rounds and
measures rounds, messages, and bandwidth.

Phases only see a :class:`LocalView` of the network: the node's identifier,
its unique id, its list of neighbors, and the globally known quantities the
LOCAL model permits (``n``, the maximum degree bound, and the algorithm's
parameters).  This enforces the information locality the model requires -- a
phase implementation has no way to read another node's state except through
messages.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LocalView:
    """The information a node is allowed to use locally.

    Attributes
    ----------
    node_id:
        The vertex identifier in the communication graph.
    unique_id:
        The distinct identity number from ``{1, ..., n}``.
    neighbors:
        The identifiers of adjacent vertices, in deterministic order.
    globals:
        Globally known quantities: ``n`` and ``max_degree``.  In the LOCAL
        model these are assumed to be known to every processor before the
        computation starts.
    """

    node_id: Hashable
    unique_id: int
    neighbors: Tuple[Hashable, ...]
    globals: Mapping[str, Any]

    @property
    def degree(self) -> int:
        """Number of incident edges."""
        return len(self.neighbors)


class SynchronousPhase(abc.ABC):
    """One phase of a synchronous distributed algorithm.

    Subclasses implement the three per-node callbacks.  The scheduler invokes
    them as follows::

        initialize(view, state)                     # before round 1
        for round_index in 1, 2, ...:
            outbox = send(view, state, round_index)      # for every live node
            ... messages are delivered ...
            halted = receive(view, state, inbox, round_index)
        finalize(view, state)                       # after every node halted

    ``state`` is the node's mutable dictionary; it is shared across the phases
    of a :class:`PhasePipeline`, which is how later phases consume the outputs
    (e.g. colors) produced by earlier ones.
    """

    #: Human-readable phase name used in metrics breakdowns.
    name: str = "phase"

    def initialize(self, view: LocalView, state: Dict[str, Any]) -> None:
        """Set up per-node state before the first round (default: no-op)."""

    @abc.abstractmethod
    def send(
        self, view: LocalView, state: Dict[str, Any], round_index: int
    ) -> Mapping[Hashable, Any]:
        """Return the messages to send this round, keyed by neighbor id.

        Returning an empty mapping means the node stays silent this round.
        Keys that are not neighbors of the node cause the scheduler to raise
        :class:`~repro.exceptions.SimulationError`.
        """

    @abc.abstractmethod
    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:
        """Process this round's inbox; return ``True`` to halt the node."""

    def finalize(self, view: LocalView, state: Dict[str, Any]) -> None:
        """Post-process state once every node has halted (default: no-op)."""

    def max_rounds(self, n: int, max_degree: int) -> int:
        """Safety bound on the number of rounds this phase may take.

        The scheduler aborts with :class:`~repro.exceptions.RoundLimitExceeded`
        if the phase exceeds the bound; the default is generous.
        """
        return max(16, 4 * n + 16)


class _SilentSentinel:
    """Sentinel returned by :meth:`BroadcastPhase.broadcast` to stay silent."""

    _instance: Optional["_SilentSentinel"] = None

    def __new__(cls) -> "_SilentSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SILENT"


#: Return this from :meth:`BroadcastPhase.broadcast` to send nothing this round.
SILENT = _SilentSentinel()


class BroadcastPhase(SynchronousPhase):
    """A phase that sends the *same* payload to every neighbor each round.

    Almost every routine in this package (Linial recoloring, color reduction,
    the defective polynomial steps, the ``psi``-selection loop) announces one
    value -- typically the node's current color -- to all neighbors at once.
    The schedulers use :meth:`send`, which is derived from
    :meth:`broadcast` here, and a phase's ``vector_run`` computes the same
    round as one array program over all nodes.

    Subclasses implement :meth:`broadcast` instead of :meth:`send` and return
    :data:`SILENT` to stay quiet for a round.  The payload must be treated as
    immutable by receivers -- the same object is delivered to every neighbor.
    """

    @abc.abstractmethod
    def broadcast(self, view: LocalView, state: Dict[str, Any], round_index: int) -> Any:
        """Return this round's payload for all neighbors, or :data:`SILENT`."""

    def send(
        self, view: LocalView, state: Dict[str, Any], round_index: int
    ) -> Mapping[Hashable, Any]:
        payload = self.broadcast(view, state, round_index)
        if payload is SILENT:
            return {}
        return {neighbor: payload for neighbor in view.neighbors}


class LocalComputationPhase(SynchronousPhase):
    """A zero-round phase: pure local post-processing of node state.

    Used for steps the paper charges zero rounds for (e.g. merging the
    colorings of the subgraphs ``G_1, ..., G_p`` into a unified coloring by
    adding palette offsets).
    """

    name = "local-computation"

    #: Marker the scheduler checks to skip the send/receive loop entirely.
    zero_rounds: bool = True

    def send(
        self, view: LocalView, state: Dict[str, Any], round_index: int
    ) -> Mapping[Hashable, Any]:  # pragma: no cover - never called
        return {}

    def receive(
        self,
        view: LocalView,
        state: Dict[str, Any],
        inbox: Mapping[Hashable, Any],
        round_index: int,
    ) -> bool:  # pragma: no cover - never called
        return True

    @abc.abstractmethod
    def compute(self, view: LocalView, state: Dict[str, Any]) -> None:
        """Transform the node's state locally (no communication)."""

    def max_rounds(self, n: int, max_degree: int) -> int:
        return 0


class PhasePipeline:
    """An ordered sequence of phases executed on the same node states.

    The pipeline is the unit the scheduler runs: phase ``i+1`` starts only
    after every node has halted in phase ``i`` (a global synchronization the
    paper also assumes implicitly between the steps of its procedures, since
    each step's round count is known to all nodes in advance).
    """

    def __init__(self, phases: Sequence[SynchronousPhase], name: Optional[str] = None) -> None:
        self._phases: List[SynchronousPhase] = list(phases)
        self.name = name or "+".join(phase.name for phase in self._phases)

    @property
    def phases(self) -> Tuple[SynchronousPhase, ...]:
        """The phases in execution order."""
        return tuple(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    def __iter__(self):
        return iter(self._phases)
