"""The reliability substrate: deterministic fault injection for sweeps.

The paper's LOCAL-model algorithms are designed for unreliable distributed
settings; this package gives the *execution layer* the same discipline, on
one machine first, where every failure mode is deterministic and testable:
:mod:`repro.resilience.faults` holds a seedable :class:`FaultPlan` /
:class:`FaultInjector` pair that makes scenario workers crash, hang, raise,
or corrupt their payloads at chosen sweep positions and attempts,
env-propagated so process-pool runs are injectable.

The hardened :class:`~repro.experiments.ExperimentRunner` (retries, soft
timeouts, broken-pool recovery, write-through checkpointing) consumes it.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
]
