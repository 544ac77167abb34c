"""Fused multi-core kernels inside the ``"vectorized"`` engine.

This package is the vectorized engine's kernel-dispatch layer: for the
hot per-round loops of the coloring pipeline (Linial recoloring, Kuhn
defective steps, the two palette reductions, the defective *edge* ranking,
Algorithm 1's psi-selection sweep over the phi-classes, and the Luby round)
it provides fused single-pass CSR kernels with two interchangeable
providers --

* **numba** (``_numba_backend``): ``@njit(parallel=True, cache=True)`` over
  the reference loops in ``_loops.py``; preferred when numba imports.
* **cext** (``_c_backend``): the same loops transcribed to C with OpenMP,
  built on demand by the system compiler and loaded via ctypes; used when
  numba is absent but a C toolchain exists.

Neither is required: with no provider, :func:`get_backend` returns ``None``
and the vectorized engine runs every phase's numpy ``vector_run``, bit for
bit the same results.  Kernels report failure through a status value, never
an exception: a kernel whose scratch allocation fails returns status 2 and
its adapter runs the phase's ``vector_run`` instead.  A freshly loaded
provider is *probed* -- every kernel is run on a small adversarial graph
and compared against the ``_loops`` reference -- so a miscompiled library
is rejected instead of corrupting colorings.

Environment knobs:

* ``REPRO_KERNEL_BACKEND``: ``auto`` (default) | ``numba`` | ``cext`` |
  ``none`` -- force a provider or disable dispatch outright.
* ``REPRO_KERNEL_THREADS``: initial thread count, an integer ``>= 1`` (see
  :func:`set_num_threads`; anything else raises
  :class:`~repro.exceptions.InvalidParameterError` when the backend is
  resolved); numba additionally respects ``NUMBA_NUM_THREADS`` as its upper
  bound.  A child forked after the backend resolved (a process-pool worker)
  runs its kernels on one thread.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.kernels import _loops

__all__ = [
    "get_backend",
    "backend_name",
    "backend_reason",
    "force_backend",
    "set_num_threads",
    "get_num_threads",
    "reset",
    "runner_for",
]

_RESOLVED = False
_BACKEND = None
_REASON = "backend not yet resolved"


def _probe_inputs():
    """A small adversarial instance: path + isolated node, non-monotone ids."""
    indptr = np.array([0, 1, 3, 5, 7, 9, 10, 10], dtype=np.int64)
    indices = np.array([1, 0, 2, 1, 3, 2, 4, 3, 5, 4], dtype=np.int64)
    uids = np.array([10, 3, 57, 2, 9, 40, 1], dtype=np.int64)
    return indptr, indices, uids


def _probe(backend) -> bool:
    """Run every kernel against the ``_loops`` reference; True when identical.

    The stateful kernels (reductions, Luby) get *legal* colorings so their
    documented benign races stay benign during the probe itself.
    """
    indptr, indices, uids = _probe_inputs()
    n = len(indptr) - 1
    checks = []

    colors = np.array([1, 7, 13, 19, 25, 2, 9], dtype=np.int64)
    for kernel in ("linial_round", "defective_step"):
        expected = np.zeros(n, dtype=np.int64)
        actual = np.zeros(n, dtype=np.int64)
        if kernel == "linial_round":
            _loops.linial_round(indptr, indices, uids, colors, 5, 2, expected)
            backend.linial_round(indptr, indices, uids, colors, 5, 2, actual)
        else:
            _loops.defective_step(indptr, indices, colors, 5, 2, expected)
            backend.defective_step(indptr, indices, colors, 5, 2, actual)
        checks.append(np.array_equal(expected, actual))

    legal = np.array([4, 5, 6, 4, 5, 6, 6], dtype=np.int64)
    expected, actual = legal.copy(), legal.copy()
    expected_status = np.zeros(1, dtype=np.int64)
    actual_status = np.zeros(1, dtype=np.int64)
    _loops.iter_reduce(indptr, indices, expected, 6, 3, 3, expected_status)
    backend.iter_reduce(indptr, indices, actual, 6, 3, 3, actual_status)
    checks.append(
        np.array_equal(expected, actual) and expected_status[0] == actual_status[0]
    )

    legal = np.array([7, 8, 9, 10, 11, 12, 1], dtype=np.int64)
    expected, actual = legal.copy(), legal.copy()
    expected_status[0] = actual_status[0] = 0
    _loops.kw_reduce(indptr, indices, expected, 3, 6, expected_status)
    backend.kw_reduce(indptr, indices, actual, 3, 6, actual_status)
    checks.append(
        np.array_equal(expected, actual) and expected_status[0] == actual_status[0]
    )

    edge_u = np.array([0, 1, 1, 2, 3, 0, 5], dtype=np.int64)
    edge_v = np.array([9, 9, 2, 7, 7, 2, 6], dtype=np.int64)
    sort_rank = np.array([3, 0, 6, 1, 5, 2, 4], dtype=np.int64)
    codes = np.array([0, 1, 0, 1, 0, 0, 1], dtype=np.int64)
    for has_codes in (0, 1):
        expected_u = np.zeros(n, dtype=np.int64)
        expected_v = np.zeros(n, dtype=np.int64)
        actual_u = np.zeros(n, dtype=np.int64)
        actual_v = np.zeros(n, dtype=np.int64)
        _loops.edge_rank(
            indptr, indices, edge_u, edge_v, sort_rank, codes, has_codes,
            expected_u, expected_v,
        )
        backend.edge_rank(
            indptr, indices, edge_u, edge_v, sort_rank, codes, has_codes,
            actual_u, actual_v,
        )
        checks.append(
            np.array_equal(expected_u, actual_u)
            and np.array_equal(expected_v, actual_v)
        )

    # psi-selection over phi-classes with ties between neighbors (1 and 2).
    phi = np.array([3, 1, 1, 2, 5, 2, 4], dtype=np.int64)
    order = np.argsort(phi, kind="stable").astype(np.int64)
    class_ptr = np.array([0, 2, 4, 5, 6, 7], dtype=np.int64)
    picks = []
    for provider in (_loops, backend):
        depth = np.zeros(n, dtype=np.int64)
        psi = np.zeros(n, dtype=np.int64)
        status = provider.psi_select(indptr, indices, phi, order, class_ptr, 2, depth, psi)
        picks.append((status, depth.tolist(), psi.tolist()))
    checks.append(picks[0] == picks[1])

    palette = 4
    taken = np.zeros((n, palette), dtype=np.uint8)
    taken[1, 0] = taken[1, 2] = taken[3, 3] = taken[6, 1] = 1
    undecided = np.array([0, 2, 3, 6], dtype=np.int64)
    expected = np.zeros(len(undecided), dtype=np.int64)
    actual = np.zeros(len(undecided), dtype=np.int64)
    _loops.luby_free_counts(undecided, taken, palette, expected)
    backend.luby_free_counts(undecided, taken, palette, actual)
    checks.append(np.array_equal(expected, actual))

    lanes = np.array([0, 3, 6], dtype=np.int64)
    picks = np.array([2, 1, 0], dtype=np.int64)
    expected = np.zeros(n, dtype=np.int64)
    actual = np.zeros(n, dtype=np.int64)
    _loops.luby_candidates(lanes, picks, taken, palette, expected)
    backend.luby_candidates(lanes, picks, taken, palette, actual)
    checks.append(np.array_equal(expected, actual))

    final = np.array([0, 2, 0, 0, 4, 0, 0], dtype=np.int64)
    announce = np.array([1, 4], dtype=np.int64)
    undecided_mask = np.array([1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    expected_taken, actual_taken = taken.copy(), taken.copy()
    _loops.luby_absorb(announce, indptr, indices, final, undecided_mask, expected_taken)
    backend.luby_absorb(announce, indptr, indices, final, undecided_mask, actual_taken)
    checks.append(np.array_equal(expected_taken, actual_taken))

    candidate = np.array([2, 0, 2, 1, 0, 3, 4], dtype=np.int64)
    expected = np.zeros(len(undecided), dtype=np.uint8)
    actual = np.zeros(len(undecided), dtype=np.uint8)
    _loops.luby_resolve(undecided, indptr, indices, candidate, expected_taken, expected)
    backend.luby_resolve(undecided, indptr, indices, candidate, expected_taken, actual)
    checks.append(np.array_equal(expected, actual))

    return all(checks)


def _thread_count(value) -> int:
    """``value`` as a kernel thread count; anything but an integer >= 1 raises."""
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1 or (not isinstance(value, str) and count != value):
        raise InvalidParameterError(
            f"kernel thread count must be an integer >= 1, got {value!r}"
        )
    return count


def _resolve():
    global _RESOLVED, _BACKEND, _REASON
    if _RESOLVED:
        return
    threads = os.environ.get("REPRO_KERNEL_THREADS")
    threads = _thread_count(threads) if threads else None
    _RESOLVED = True
    requested = os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
    if requested in ("none", "off", "0", "disabled"):
        _BACKEND, _REASON = None, "disabled via REPRO_KERNEL_BACKEND"
        return
    if requested not in ("auto", "numba", "cext"):
        _BACKEND, _REASON = None, f"unknown REPRO_KERNEL_BACKEND {requested!r}"
        return

    providers = []
    if requested in ("auto", "numba"):
        from repro.local_model.kernels import _numba_backend

        providers.append(_numba_backend.load)
    if requested in ("auto", "cext"):
        from repro.local_model.kernels import _c_backend

        providers.append(_c_backend.load)

    reasons = []
    for load in providers:
        try:
            backend = load()
        except Exception as exc:  # pragma: no cover - defensive
            reasons.append(f"{load.__module__}: {exc!r}")
            continue
        if backend is None:
            reasons.append(f"{load.__module__}: unavailable")
            continue
        try:
            healthy = _probe(backend)
        except Exception as exc:
            reasons.append(f"{backend.name}: probe raised {exc!r}")
            continue
        if not healthy:
            reasons.append(f"{backend.name}: probe mismatch vs reference loops")
            continue
        _BACKEND, _REASON = backend, f"{backend.name} (probed ok)"
        if threads is not None:
            backend.set_threads(threads)
        return
    _BACKEND = None
    _REASON = "; ".join(reasons) if reasons else "no kernel provider available"


def get_backend():
    """The active kernel backend, or ``None`` when dispatch is unavailable."""
    _resolve()
    return _BACKEND


def backend_name() -> Optional[str]:
    """``"numba"`` / ``"cext"`` / ``None``."""
    backend = get_backend()
    return backend.name if backend is not None else None


def backend_reason() -> str:
    """Human-readable account of how the backend was (not) selected."""
    _resolve()
    return _REASON


def set_num_threads(count: int) -> None:
    """Set the kernel thread count (an integer >= 1; no-op without a backend)."""
    count = _thread_count(count)
    backend = get_backend()
    if backend is not None:
        backend.set_threads(count)


def get_num_threads() -> int:
    """The kernel thread count the active backend will use (1 without one)."""
    backend = get_backend()
    return backend.max_threads() if backend is not None else 1


def _one_thread_after_fork() -> None:
    """A forked child runs its kernels on one thread.

    GNU OpenMP cannot continue its parent's thread pool in a forked child:
    the child's first parallel region would wait forever for threads that
    were not copied.  A one-thread region never touches that pool, so
    process-pool workers (one per core already) stay safe.
    """
    if _BACKEND is not None:
        _BACKEND.set_threads(1)


os.register_at_fork(after_in_child=_one_thread_after_fork)


def reset() -> None:
    """Drop the cached backend so the next call re-resolves (tests, env flips)."""
    global _RESOLVED, _BACKEND, _REASON
    _RESOLVED = False
    _BACKEND = None
    _REASON = "backend not yet resolved"


def force_backend(backend, reason: str = "forced") -> "callable":
    """Install ``backend`` as the resolved provider, bypassing probe/env logic.

    Every vectorized scheduler constructed afterwards dispatches into
    ``backend`` (tests install stand-in providers this way).
    ``force_backend(None)`` switches kernels off, the programmatic twin of
    ``REPRO_KERNEL_BACKEND=none``.  Returns a restore callable that
    reinstates the previous resolution state exactly; callers must invoke it
    (typically in a ``finally``) so the installed backend does not leak into
    unrelated runs.
    """
    global _RESOLVED, _BACKEND, _REASON
    previous = (_RESOLVED, _BACKEND, _REASON)
    _RESOLVED, _BACKEND, _REASON = True, backend, reason

    def restore() -> None:
        global _RESOLVED, _BACKEND, _REASON
        _RESOLVED, _BACKEND, _REASON = previous

    return restore


def runner_for(phase):
    """The kernel runner for ``phase``, or ``None`` (late import, no cycles)."""
    from repro.local_model.kernels.adapters import runner_for as _runner_for

    return _runner_for(phase)
