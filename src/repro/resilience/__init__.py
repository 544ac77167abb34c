"""The reliability substrate: deterministic fault injection for sweeps.

:mod:`repro.resilience.faults` holds a seedable :class:`FaultPlan` /
:class:`FaultInjector` pair that makes process-pool workers crash, hang,
raise, or corrupt their payloads at chosen sweep positions and attempts.
The plan reaches the workers through ``$REPRO_FAULT_PLAN``, and every fault
is deterministic, so a faulted sweep is exactly reproducible.

The :class:`~repro.experiments.ExperimentRunner`'s process pool (retries,
soft timeouts, broken-pool recovery, integrity digests) consumes it.  The
in-process sweep (``max_workers=0``) takes no plan: the algorithms are
deterministic, so nothing a retry could heal happens there.
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
