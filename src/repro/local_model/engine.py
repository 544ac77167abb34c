"""Engine selection: four bit-identical schedulers and the default rule.

The package ships four interchangeable execution paths for synchronous
phases.  They produce bit-identical states and metrics (enforced by
``tests/test_engine_equivalence.py``), so the choice changes only the cost:

* ``"reference"`` -- :class:`~repro.local_model.scheduler.Scheduler`, the
  direct transcription of the paper's model (one message object at a time,
  per-round validation).  Maximally transparent; use it when debugging a
  phase or when exactness of the *simulation* itself is under scrutiny.
* ``"batched"`` -- :class:`~repro.local_model.batched.BatchedScheduler`, the
  flat-array per-node engine.  It runs user-defined phases that have no
  ``vector_run`` and is the array engines' per-phase fallback.
* ``"vectorized"`` -- :class:`~repro.local_model.vectorized.VectorizedScheduler`,
  which executes every shipped phase as numpy kernels over the CSR arrays,
  falling back to the batched path per phase for everything else.
* ``"compiled"`` -- :class:`~repro.local_model.compiled.CompiledScheduler`,
  the vectorized engine plus fused multi-core kernels (numba or a
  C/OpenMP extension, see :mod:`repro.local_model.kernels`) for the per-round
  hot loops, falling back to the numpy ``vector_run`` per phase when no
  kernel (or no backend) exists.

Every high-level algorithm (``run_legal_coloring``, ``color_edges``, ...)
accepts an ``engine`` argument that is resolved here.  ``None`` follows one
rule, :func:`default_engine`: ``"compiled"`` when a kernel backend resolves,
else ``"vectorized"``.  The backend is resolved at the first unpinned call,
not at import, so importing this module starts no compiler.
:func:`set_default_engine` pins another default for the process and the
:func:`use_engine` context manager pins one for a ``with`` block; leaving
the block restores whatever was in force before, the rule included.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Union

from repro.exceptions import InvalidParameterError
from repro.local_model import kernels
from repro.local_model.batched import BatchedScheduler, NetworkLike
from repro.local_model.compiled import CompiledScheduler
from repro.local_model.fast_network import FastNetwork
from repro.local_model.scheduler import Scheduler
from repro.local_model.vectorized import VectorizedScheduler

#: Any scheduler class satisfies the same constructor / ``run`` protocol.
SchedulerLike = Union[Scheduler, BatchedScheduler]

_ENGINES: Dict[str, Callable[..., SchedulerLike]] = {
    "reference": Scheduler,
    "batched": BatchedScheduler,
    "vectorized": VectorizedScheduler,
    "compiled": CompiledScheduler,
}

#: The engine pinned by :func:`set_default_engine` / :func:`use_engine`;
#: ``None`` leaves the default to the rule in :func:`default_engine`.
_pinned_default: Optional[str] = None


def available_engines() -> tuple:
    """Names of the registered execution engines."""
    return tuple(sorted(_ENGINES))


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate ``engine`` and substitute the process default for ``None``."""
    name = default_engine() if engine is None else engine
    if name not in _ENGINES:
        raise InvalidParameterError(
            f"unknown engine {name!r}; available engines: {available_engines()}"
        )
    return name


def default_engine() -> str:
    """The engine ``engine=None`` resolves to right now.

    A pinned default wins; otherwise ``"compiled"`` when a kernel backend
    resolves and ``"vectorized"`` when none does.
    """
    if _pinned_default is not None:
        return _pinned_default
    return "compiled" if kernels.get_backend() is not None else "vectorized"


def set_default_engine(engine: str) -> None:
    """Pin the process-wide default engine (any of :func:`available_engines`)."""
    global _pinned_default
    _pinned_default = resolve_engine(engine)


@contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Pin the default engine within a ``with`` block, then restore it."""
    global _pinned_default
    previous = _pinned_default
    _pinned_default = resolve_engine(engine)
    try:
        yield _pinned_default
    finally:
        _pinned_default = previous


def make_scheduler(
    network: NetworkLike,
    engine: Optional[str] = None,
    globals_extra: Optional[Mapping[str, Any]] = None,
    round_limit_factor: int = 1,
) -> SchedulerLike:
    """Instantiate the scheduler for ``engine`` (default: the process default).

    This is the single seam through which all core algorithms obtain their
    executor, so every algorithm runs unchanged on every path.  ``network``
    may be a :class:`~repro.local_model.network.Network` or a (possibly
    CSR-masked) :class:`~repro.local_model.fast_network.FastNetwork`; the
    reference engine materializes the latter into the identical
    :class:`~repro.local_model.network.Network` on demand, so filtered views
    remain fully auditable.
    """
    name = resolve_engine(engine)
    if name == "reference" and isinstance(network, FastNetwork):
        network = network.to_network()
    factory = _ENGINES[name]
    return factory(
        network,
        globals_extra=globals_extra,
        round_limit_factor=round_limit_factor,
    )
