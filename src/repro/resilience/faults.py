"""Deterministic, seedable fault injection for experiment sweeps.

A :class:`FaultPlan` is plain data -- a tuple of :class:`FaultSpec` entries,
each naming a sweep position (the scenario's index in the ``run`` call), a
fault kind, and how many execution attempts it should sabotage.  Plans are
JSON round-trippable so the :class:`~repro.experiments.ExperimentRunner` can
propagate them into process-pool workers through the ``REPRO_FAULT_PLAN``
environment variable: a worker rebuilds the injector with
:meth:`FaultInjector.from_env` and consults it around each scenario
execution.  Because the plan addresses ``(index, attempt)`` pairs and every
kind is deterministic, a faulted sweep is exactly reproducible -- the
foundation of the fault-matrix test suite.

Fault kinds
-----------

``"crash"``
    Kill the worker process with ``os._exit`` (breaking the process pool);
    in-process execution raises :class:`InjectedFaultError` instead, since
    exiting the caller's interpreter is never acceptable there.
``"hang"``
    Sleep for ``hang_seconds`` before completing normally -- long enough to
    trip the runner's soft timeout when one is configured.
``"error"``
    Raise :class:`InjectedFaultError` (a clean, picklable worker exception).
``"corrupt"``
    Complete normally but mutate the result payload *after* its integrity
    digest was computed, so the parent detects the corruption and retries.
``"lose_backend"``
    Install a poisoned compiled-kernel backend whose every kernel raises
    :class:`~repro.exceptions.EngineFailure`, simulating a backend that
    disappears mid-run; the engine degradation chain then re-runs the
    scenario on the next engine down.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import EngineFailure, ReproError

#: Environment variable carrying a JSON fault plan into pool workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The recognized fault kinds, in the order :meth:`FaultPlan.seeded` rolls them.
FAULT_KINDS = (
    "crash",
    "hang",
    "error",
    "corrupt",
    "lose_backend",
)


class InjectedFaultError(ReproError, RuntimeError):
    """An error deliberately raised by the fault injector (always retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``index`` is the scenario's position in the sweep; the fault fires while
    the runner-side ``attempt`` counter is below ``attempts`` (so with the
    default ``attempts=1`` only the first execution is sabotaged and the
    first retry succeeds).  ``hang_seconds`` applies to ``"hang"`` only.
    """

    index: int
    kind: str
    attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {FAULT_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError("FaultSpec.attempts must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of planned faults, addressable by (index, attempt)."""

    specs: Tuple[FaultSpec, ...] = ()

    def spec_for(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to fire for this execution, or ``None``."""
        for spec in self.specs:
            if spec.index == index and attempt < spec.attempts:
                return spec
        return None

    def __len__(self) -> int:
        return len(self.specs)

    def to_json(self) -> str:
        """A canonical JSON encoding (the env-propagation wire format)."""
        return json.dumps(
            [
                {
                    "index": spec.index,
                    "kind": spec.kind,
                    "attempts": spec.attempts,
                    "hang_seconds": spec.hang_seconds,
                }
                for spec in self.specs
            ],
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec(
                    index=int(entry["index"]),
                    kind=str(entry["kind"]),
                    attempts=int(entry.get("attempts", 1)),
                    hang_seconds=float(entry.get("hang_seconds", 30.0)),
                )
                for entry in json.loads(text)
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_scenarios: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        error_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        lose_backend_rate: float = 0.0,
        attempts: int = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """A reproducible random plan: at most one fault per scenario index.

        Each index rolls one uniform draw against the cumulative rates (in
        :data:`FAULT_KINDS` order), so the same ``seed`` always yields the
        same plan regardless of which rates are zero.
        """
        rates = (
            crash_rate,
            hang_rate,
            error_rate,
            corrupt_rate,
            lose_backend_rate,
        )
        if sum(rates) > 1.0:
            raise ValueError("fault rates must sum to at most 1.0")
        rng = random.Random(seed)
        specs = []
        for index in range(num_scenarios):
            roll = rng.random()
            cumulative = 0.0
            for kind, rate in zip(FAULT_KINDS, rates):
                cumulative += rate
                if roll < cumulative:
                    specs.append(
                        FaultSpec(
                            index=index,
                            kind=kind,
                            attempts=attempts,
                            hang_seconds=hang_seconds,
                        )
                    )
                    break
        return cls(specs=tuple(specs))


class _LostKernelBackend:
    """A poisoned kernel backend: every kernel access raises EngineFailure."""

    name = "injected-lost-backend"

    def max_threads(self) -> int:
        return 1

    def set_threads(self, count: int) -> None:
        pass

    def __getattr__(self, name: str):
        raise EngineFailure(
            f"injected kernel backend loss (attribute {name!r} is gone)"
        )


class FaultInjector:
    """Activates a :class:`FaultPlan` around scenario executions.

    Pool workers build one with :meth:`from_env` (crashes are real
    ``os._exit`` process deaths there); the serial in-process path passes
    the plan directly, where a crash degrades to a raised
    :class:`InjectedFaultError` so the caller's interpreter survives.
    """

    def __init__(self, plan: FaultPlan, allow_process_exit: bool = False) -> None:
        self.plan = plan
        self.allow_process_exit = allow_process_exit

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """The injector described by ``$REPRO_FAULT_PLAN``, or ``None``."""
        raw = os.environ.get(FAULT_PLAN_ENV)
        if not raw:
            return None
        return cls(FaultPlan.from_json(raw), allow_process_exit=True)

    def fire_before_run(self, index: int, attempt: int) -> Optional[Callable[[], None]]:
        """Trigger any pre-execution fault for ``(index, attempt)``.

        Returns a restore callable when the fault installed process-global
        state (the poisoned kernel backend) that must be undone after the
        scenario -- pool workers are reused, so leaking it would sabotage
        innocent scenarios.
        """
        spec = self.plan.spec_for(index, attempt)
        if spec is None:
            return None
        if spec.kind == "crash":
            if self.allow_process_exit:
                os._exit(13)
            raise InjectedFaultError(
                f"injected worker crash at scenario {index}, attempt {attempt}"
            )
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            return None
        if spec.kind == "error":
            raise InjectedFaultError(
                f"injected worker error at scenario {index}, attempt {attempt}"
            )
        if spec.kind == "lose_backend":
            from repro.local_model import kernels

            return kernels.force_backend(
                _LostKernelBackend(), reason="injected backend loss"
            )
        # "corrupt" fires after the run (corrupt_payload).
        return None

    def corrupt_payload(self, index: int, attempt: int, payload: Dict) -> bool:
        """Mutate ``payload`` in place for a ``"corrupt"`` fault; True if fired.

        Called *after* the worker computed the payload's integrity digest, so
        the mutation is detectable (and retried) by the parent.
        """
        spec = self.plan.spec_for(index, attempt)
        if spec is None or spec.kind != "corrupt":
            return False
        payload["_injected_corruption"] = f"scenario {index}, attempt {attempt}"
        if "coloring_digest" in payload:
            payload["coloring_digest"] = "0" * 64
        return True
