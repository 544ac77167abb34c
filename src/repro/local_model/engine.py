"""Engine selection: two bit-identical schedulers and the default rule.

The package ships two interchangeable execution paths for synchronous
phases.  They produce identical outputs and metrics (enforced by
``tests/test_engine_equivalence.py``), so the choice changes only the cost:

* ``"reference"`` -- :class:`~repro.local_model.scheduler.Scheduler`, the
  direct transcription of the paper's model (one message object at a time,
  per-round validation), over the same CSR view.  Maximally transparent; use it when debugging a
  phase or when exactness of the *simulation* itself is under scrutiny.
* ``"vectorized"`` -- :class:`~repro.local_model.vectorized.VectorizedScheduler`,
  which runs every shipped phase over the CSR arrays: its inner step as a
  fused multi-core C/OpenMP kernel (see :mod:`repro.local_model.kernels`)
  when the kernel backend resolves, else as numpy.  It runs only phases
  that define ``vector_run`` (every phase the package ships); a
  user-defined phase without one runs on ``"reference"``.

Every high-level algorithm (``run_legal_coloring``, ``color_edges``, ...)
accepts an ``engine`` argument that is resolved here.  ``None`` means the
process default, :func:`default_engine`: ``"vectorized"`` unless
:func:`set_default_engine` pins another engine for the process or the
:func:`use_engine` context manager pins one for a ``with`` block; leaving
the block restores whatever was in force before.  Kernels are switched off
with ``REPRO_KERNEL_BACKEND=none``, not by choosing an engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Union

from repro.exceptions import InvalidParameterError
from repro.local_model.fast_network import FastNetwork
from repro.local_model.scheduler import Scheduler
from repro.local_model.vectorized import VectorizedScheduler

#: Any scheduler class satisfies the same constructor / ``run`` protocol.
SchedulerLike = Union[Scheduler, VectorizedScheduler]

_ENGINES: Dict[str, Callable[..., SchedulerLike]] = {
    "reference": Scheduler,
    "vectorized": VectorizedScheduler,
}

#: The engine pinned by :func:`set_default_engine` / :func:`use_engine`;
#: ``None`` leaves the default at ``"vectorized"``.
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
    """The engine ``engine=None`` resolves to: the pinned default, else ``"vectorized"``."""
    return _pinned_default if _pinned_default is not None else "vectorized"


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


def make_scheduler(network: FastNetwork, engine: Optional[str] = None) -> SchedulerLike:
    """Instantiate the scheduler for ``engine`` (default: the process default).

    This is the single seam through which all core algorithms obtain their
    executor, so every algorithm runs unchanged on every path.  ``network``
    is a (possibly CSR-masked)
    :class:`~repro.local_model.fast_network.FastNetwork`, which both engines
    run on as it is; anything else raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    return _ENGINES[resolve_engine(engine)](network)
