"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses are raised by the
simulator, the graph utilities, and the coloring verifiers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm was invoked with parameters outside its documented domain.

    For example, Procedure Defective-Color requires ``b >= 1`` and
    ``b * p <= Lambda``; violating either constraint raises this error.
    """


class SimulationError(ReproError, RuntimeError):
    """The synchronous round simulator detected an inconsistency.

    Typical causes are a node attempting to message a non-neighbor, or a
    phase returning malformed messages.
    """


class RoundLimitExceeded(SimulationError):
    """A phase did not terminate within its declared round budget.

    Every :class:`~repro.local_model.algorithm.SynchronousPhase` declares a
    safety bound on the number of rounds it may take.  Exceeding the bound
    almost always indicates a bug in the phase implementation (for instance,
    a deadlock in a wait-for-neighbors protocol), so the scheduler aborts
    instead of looping forever.
    """


class ColoringError(ReproError):
    """A produced coloring violates a property it was required to satisfy.

    Raised by the verification oracles in :mod:`repro.verification` when a
    coloring is not legal, exceeds its palette, or exceeds its defect bound.
    """


class GraphPropertyError(ReproError, ValueError):
    """An input graph does not satisfy a structural precondition.

    For example, algorithms that assume neighborhood independence at most
    ``c`` raise this error when verification is requested and the input graph
    violates the assumption.
    """


class HypergraphError(ReproError, ValueError):
    """An invalid hypergraph construction was attempted.

    For example, adding a hyperedge with more than ``r`` vertices to an
    ``r``-bounded hypergraph.
    """
