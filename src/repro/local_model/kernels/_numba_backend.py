"""Numba kernel backend: jits the ``_loops`` reference functions.

``_loops`` is written in numba's restricted subset and imports
``numba.prange`` when available, so ``njit(parallel=True, cache=True)``
over the very same function objects yields the parallel kernels -- one
source of truth, no transcription to drift.  ``cache=True`` persists the
compiled machine code next to ``_loops.py``'s ``__pycache__``, so the
first-import compile cost is paid once per environment.

Thread counts go through ``numba.set_num_threads`` (bounded by
``NUMBA_NUM_THREADS``, which must be set before the first parallel kernel
runs -- see the README's engine section).
"""

from __future__ import annotations

from typing import Optional

from repro.local_model.kernels import _loops


class NumbaBackend:
    """Jitted facade exposing the same kernel names as the C backend."""

    name = "numba"

    def __init__(self, numba_module) -> None:
        self._numba = numba_module
        decorate = numba_module.njit(parallel=True, cache=True, nogil=True)
        for kernel in _loops.KERNEL_NAMES:
            setattr(self, kernel, decorate(getattr(_loops, kernel)))

    def max_threads(self) -> int:
        return int(self._numba.get_num_threads())

    def set_threads(self, count: int) -> None:
        self._numba.set_num_threads(count)


def load() -> Optional[NumbaBackend]:
    """Jit the reference loops; ``None`` when numba is not importable."""
    try:
        import numba
    except ImportError:
        return None
    try:
        return NumbaBackend(numba)
    except Exception:  # pragma: no cover - defensive: malformed install
        return None
