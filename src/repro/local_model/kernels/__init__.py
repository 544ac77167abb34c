"""Fused multi-core kernels inside the ``"vectorized"`` engine.

This package is the vectorized engine's kernel-provider layer: for the hot
per-round loops of the coloring pipeline (the polynomial recoloring step
of Linial's rounds and Kuhn's defective steps, the two palette reductions,
the defective *edge* ranking, Algorithm 1's psi-selection sweep over the
phi-classes, and the Luby round) every phase calls one step by name on
``VectorContext.kernels``; the
``L(G)`` builder (:mod:`repro.local_model.line_csr`) calls its twin scan
(``entry_twins``) and incidence gather (``line_gather``),
:func:`~repro.graphs.random_geometric` its unit-disk cell sweep
(``geo_pairs``), and
:meth:`~repro.local_model.fast_network.FastNetwork.filtered_by_labels` its
equal-label filter (``label_filter``) on :func:`provider`: thirteen steps.
Two providers implement the steps with one signature and in-place/status
contract:

* **cext** (``_c_backend``): fused single-pass CSR kernels in C with
  OpenMP, built on demand by the system compiler and loaded via ctypes;
* the numpy steps of ``_numpy``, used whenever cext does not resolve.

:func:`get_backend` returns the cext backend or ``None``; :func:`provider`
returns cext or ``_numpy``, bit for bit the same results.  Kernels report
failure through a status value, never an exception; a C kernel whose
scratch allocation fails runs the numpy step on the same arrays inside its
wrapper, so no caller sees it.  A freshly
loaded provider is *probed* -- every kernel is run on a small adversarial
graph and compared against its numpy step -- so a miscompiled library is
rejected instead of corrupting colorings.

Environment knobs:

* ``REPRO_KERNEL_BACKEND``: ``auto`` (default) | ``cext`` | ``none`` --
  force the C provider or switch it off (the numpy steps run); any other
  value raises :class:`~repro.exceptions.InvalidParameterError` when the
  backend is resolved.
* ``REPRO_KERNEL_THREADS``: initial thread count, an integer ``>= 1`` (see
  :func:`set_num_threads`; anything else raises
  :class:`~repro.exceptions.InvalidParameterError` when the backend is
  resolved).  A child forked after the backend resolved (a process-pool
  worker) runs its kernels on one thread.
"""

from __future__ import annotations

import operator
import os
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model.kernels import _numpy

__all__ = [
    "get_backend",
    "provider",
    "backend_name",
    "backend_reason",
    "force_backend",
    "set_num_threads",
    "get_num_threads",
    "reset",
]

_RESOLVED = False
_BACKEND = None
_REASON = "backend not yet resolved"


def _i64(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _probe_cases():
    """``(kernel, args)`` pairs on a small adversarial instance.

    The graph is a path plus an isolated node.  The polynomial step runs
    once where every node has a collision-free point and once where nodes 1
    and 3 have none.  The stateful kernels (reductions, Luby) get *legal*
    colorings so their documented benign races stay benign during the
    probe itself.  The
    unit-disk sweep runs on nine points over a 3 x 3 grid, with pairs at
    exactly the radius, across cells and in the closed square's corners.
    """
    from repro.graphs.generators import _sweep_arrays

    indptr = _i64(0, 1, 3, 5, 7, 9, 10, 10)
    indices = _i64(1, 0, 2, 1, 3, 2, 4, 3, 5, 4)
    n = len(indptr) - 1
    colors = _i64(1, 7, 13, 19, 25, 2, 9)
    edge_u, edge_v = _i64(0, 1, 1, 2, 3, 0, 5), _i64(9, 9, 2, 7, 7, 2, 6)
    # psi-selection over phi-classes with ties between neighbors (1 and 2).
    phi = _i64(3, 1, 1, 2, 5, 2, 4)
    order = np.argsort(phi, kind="stable").astype(np.int64)
    palette = 4
    taken = np.zeros((n, palette), dtype=np.uint8)
    taken[1, 0] = taken[1, 2] = taken[3, 3] = taken[6, 1] = 1
    undecided = _i64(0, 2, 3, 6)
    final, announce = _i64(0, 2, 0, 0, 4, 0, 0), _i64(1, 4)
    undecided_mask = np.array([1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    # The rows after the absorb case: node 0's candidate (2) is taken.
    absorbed = taken.copy()
    absorbed[[0, 2], 1] = absorbed[[3, 5], 3] = 1
    out, out2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    counts, keep = np.zeros(len(undecided), dtype=np.int64), np.zeros(len(undecided), np.uint8)
    status = np.zeros(1, dtype=np.int64)
    # The L(G) builder's steps on the same (ascending-row) CSR.
    eid, own = np.zeros_like(indices), np.zeros_like(indices)
    _numpy.entry_twins(indptr, indices, eid, own)
    chunk_rows = indices[own.reshape(-1, 2)[:, ::-1].ravel()]
    line_sizes = (np.diff(indptr)[chunk_rows] - 1).reshape(-1, 2).sum(axis=1)
    line_indptr = np.r_[0, np.cumsum(line_sizes)]
    line_out = np.zeros(line_indptr[-1], dtype=np.int64)
    # Pairs at exactly the radius 0.25, and the closed square's corners.
    exact = [(0.25, 0.5), (0.5, 0.5), (0.3, 0.1), (0.5, 0.25), (0.1, 0.3)]
    points = np.array(exact + [(0.0, 0.0), (1.0, 1.0), (0.75, 0.75), (0.9, 0.95)])
    return [
        ("defective_step", (indptr, indices, colors, 5, 2, out)),
        ("defective_step", (indptr, indices, _i64(3, 1, 4, 1, 3, 2, 2), 2, 2, out)),
        ("iter_reduce", (indptr, indices, _i64(4, 5, 6, 4, 5, 6, 6), 6, 3, 3, status)),
        ("kw_reduce", (indptr, indices, _i64(7, 8, 9, 10, 11, 12, 1), 3, 6, status)),
        ("edge_rank", (indptr, indices, edge_u, edge_v, out, out2)),
        ("psi_select", (indptr, indices, phi, order, _i64(0, 2, 4, 5, 6, 7), 2, out, out2)),
        ("luby_free_counts", (undecided, taken, palette, counts)),
        ("luby_candidates", (_i64(0, 3, 6), _i64(2, 1, 0), taken, palette, out)),
        ("luby_absorb", (announce, indptr, indices, final, undecided_mask, taken)),
        ("luby_resolve", (undecided, indptr, indices, _i64(2, 0, 2, 1, 0, 3, 4), absorbed, keep)),
        ("entry_twins", (indptr, indices, np.zeros_like(eid), np.zeros_like(own))),
        ("line_gather", (indptr, chunk_rows, own, eid, line_indptr, line_out)),
        ("geo_pairs", _sweep_arrays(points, 0.25)),
        ("label_filter", (indptr, indices, _i64(2, 2, 2, 5, 5, 2, 5))),
    ]


def _probe(backend) -> bool:
    """Run every kernel of ``backend`` against its numpy step; True when identical.

    Both sides run on their own copies of each case's arrays; the return
    values (a status, or the arrays a step sizes from the data) and every
    array afterwards (the in-place outputs) must agree.
    """
    for kernel, args in _probe_cases():
        runs = []
        for provider in (_numpy, backend):
            copies = [arg.copy() if isinstance(arg, np.ndarray) else arg for arg in args]
            runs.append((getattr(provider, kernel)(*copies), copies))
        (expected, expected_args), (actual, actual_args) = runs
        if not _same(expected, actual) or not all(
            np.array_equal(a, b) for a, b in zip(expected_args, actual_args)
        ):
            return False
    return True


def _same(expected, actual) -> bool:
    """Equal statuses, or equal tuples of arrays of one dtype each."""
    if isinstance(expected, tuple):
        return len(expected) == len(actual) and all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(expected, actual)
        )
    return expected == actual


def _thread_count(value) -> int:
    """``value`` as a kernel thread count; anything but an integer >= 1 raises.

    Integers (numpy ones included) and digit strings (the environment
    variable) are accepted; bools and floats are not, even integral ones.
    """
    try:
        count = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1 or isinstance(value, bool):
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
    requested = os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
    if requested not in ("auto", "cext", "none"):
        raise InvalidParameterError(
            f"REPRO_KERNEL_BACKEND must be one of auto, cext, none; got {requested!r}"
        )
    _RESOLVED = True
    if requested == "none":
        _BACKEND, _REASON = None, "disabled via REPRO_KERNEL_BACKEND"
        return

    from repro.local_model.kernels import _c_backend

    _BACKEND = None
    try:
        backend = _c_backend.load()
    except Exception as exc:  # pragma: no cover - defensive
        _REASON = f"cext: {exc!r}"
        return
    if backend is None:
        _REASON = "cext: unavailable (no C compiler, or the build failed)"
        return
    try:
        healthy = _probe(backend)
    except Exception as exc:
        _REASON = f"cext: probe raised {exc!r}"
        return
    if not healthy:
        _REASON = "cext: probe mismatch vs the numpy steps"
        return
    _BACKEND, _REASON = backend, "cext (probed ok)"
    if threads is not None:
        backend.set_threads(threads)


def get_backend():
    """The active kernel backend, or ``None`` when dispatch is unavailable."""
    _resolve()
    return _BACKEND


def provider():
    """The module-like provider of every kernel step: the backend, else ``_numpy``."""
    backend = get_backend()
    return backend if backend is not None else _numpy


def backend_name() -> Optional[str]:
    """``"cext"`` / ``None``."""
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
