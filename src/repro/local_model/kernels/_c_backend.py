"""C/OpenMP kernel backend: builds ``csrc/kernels.c`` on demand via gcc.

The C source is read once, at import, and only that snapshot is compiled
(from a copy written beside the artifact), so the ctypes wrappers and
``_SIGNATURES`` below always match the loaded library, even if
``kernels.c`` changes on disk while the process runs.  The shared library
is compiled once per source version -- the artifact name embeds a SHA-256
of the snapshot plus the compile flags, so editing the source or flags
triggers a rebuild and stale artifacts are simply ignored.  Artifacts land
in ``_build/`` next to this file when writable (gitignored), else under the
system temp directory, so read-only installs still work.

Loaded through :mod:`ctypes`; every wrapper presents the exact Python
signature and in-place/status contract of its numpy step in ``_numpy``, so
the phases and the test suite can swap one provider for the other.  The two
kernels that allocate scratch (``kw_reduce``, ``psi_select``) report a
failed allocation as status 2 with their outputs untouched; their wrappers
then run the numpy step on the same arrays.

When OpenMP is unavailable the build retries without it (serial kernels,
still fused); when no C compiler is present :func:`load` returns ``None``
and the phases run the numpy steps.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.local_model.kernels import _numpy

_SOURCE = Path(__file__).with_name("csrc") / "kernels.c"
#: The source bytes as of import; the only text :func:`load` compiles.
_SOURCE_TEXT = _SOURCE.read_bytes() if _SOURCE.exists() else None
_CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
_OPENMP_FLAG = "-fopenmp"

#: Compile-step wall-clock budget (seconds); override via the env var below.
#: A wedged system compiler then costs one bounded wait instead of hanging
#: the first compiled run forever.
_COMPILE_TIMEOUT_ENV = "REPRO_KERNEL_COMPILE_TIMEOUT"
_COMPILE_TIMEOUT_DEFAULT = 120.0

_I64 = ctypes.c_longlong
_PTR = ctypes.c_void_p


def _build_dir() -> Path:
    local = Path(__file__).with_name("_build")
    try:
        local.mkdir(exist_ok=True)
        probe = local / ".writable"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        fallback = Path(tempfile.gettempdir()) / "repro-kernels"
        fallback.mkdir(exist_ok=True)
        return fallback


def _compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_timeout() -> float:
    raw = os.environ.get(_COMPILE_TIMEOUT_ENV)
    if raw:
        try:
            return max(1.0, float(raw))
        except ValueError:
            pass
    return _COMPILE_TIMEOUT_DEFAULT


def _compile(source: bytes, compiler: str, use_openmp: bool) -> Optional[Path]:
    flags = list(_CFLAGS) + ([_OPENMP_FLAG] if use_openmp else [])
    tag = hashlib.sha256(source + " ".join(flags).encode()).hexdigest()[:16]
    artifact = _build_dir() / f"kernels-{tag}.so"
    if artifact.exists():
        return artifact
    # Failure memo: a previous build of this exact (source, flags) pair timed
    # out or failed, so skip straight to the numpy steps instead of
    # re-invoking (and potentially re-hanging on) the system compiler every
    # process start.  The memo is keyed by the same content tag as the
    # artifact, so editing the source or flags retries automatically; delete
    # the file to retry by hand.
    memo = artifact.with_suffix(".failed")
    if memo.exists():
        return None
    scratch = artifact.with_suffix(f".{os.getpid()}.tmp")
    source_copy = artifact.with_suffix(f".{os.getpid()}.c")
    command = [compiler, *flags, str(source_copy), "-o", str(scratch)]
    try:
        source_copy.write_bytes(source)
        subprocess.run(
            command,
            check=True,
            capture_output=True,
            text=True,
            timeout=_compile_timeout(),
        )
    except (subprocess.SubprocessError, OSError) as error:
        scratch.unlink(missing_ok=True)
        source_copy.unlink(missing_ok=True)
        try:
            memo.write_text(f"{type(error).__name__}: {error}\n", encoding="utf-8")
        except OSError:
            pass
        return None
    os.replace(source_copy, artifact.with_suffix(".c"))
    os.replace(scratch, artifact)  # atomic under concurrent builders
    return artifact


def _as_i64(array: np.ndarray) -> int:
    if array.dtype != np.int64 or not array.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous int64")
    return array.ctypes.data


def _as_u8(array: np.ndarray) -> int:
    if array.dtype != np.uint8 or not array.flags.c_contiguous:
        raise ValueError("kernel flag arrays must be C-contiguous uint8")
    return array.ctypes.data


class CExtensionBackend:
    """ctypes facade over the compiled shared library."""

    name = "cext"

    def __init__(self, library: ctypes.CDLL, openmp: bool) -> None:
        self._lib = library
        self.openmp = openmp
        library.repro_max_threads.restype = _I64
        library.repro_max_threads.argtypes = ()
        library.repro_set_threads.restype = None
        library.repro_set_threads.argtypes = (_I64,)
        for symbol, argtypes in _SIGNATURES.items():
            handle = getattr(library, symbol)
            handle.restype = None
            handle.argtypes = argtypes
        library.psi_select.restype = _I64  # the one kernel returning a status

    def max_threads(self) -> int:
        return int(self._lib.repro_max_threads())

    def set_threads(self, count: int) -> None:
        self._lib.repro_set_threads(int(count))

    # -- kernel wrappers (signatures mirror repro.local_model.kernels._numpy) --

    def linial_round(self, indptr, indices, uids, colors, q, num_digits, out):
        self._lib.linial_round(
            _as_i64(indptr), _as_i64(indices), _as_i64(uids), _as_i64(colors),
            len(indptr) - 1, q, num_digits, _as_i64(out),
        )

    def defective_step(self, indptr, indices, colors, q, num_digits, out):
        self._lib.defective_step(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, q, num_digits, _as_i64(out),
        )

    def iter_reduce(self, indptr, indices, colors, palette, target, total_rounds, status):
        self._lib.iter_reduce(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, palette, target, total_rounds, _as_i64(status),
        )

    def kw_reduce(self, indptr, indices, colors, k, total_rounds, status):
        self._lib.kw_reduce(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, k, total_rounds, _as_i64(status),
        )
        if status[0] == 2:  # no scratch; colors untouched
            status[0] = 0
            _numpy.kw_reduce(indptr, indices, colors, k, total_rounds, status)

    def edge_rank(self, indptr, indices, edge_u, edge_v, rank_u, rank_v):
        self._lib.edge_rank(
            _as_i64(indptr), _as_i64(indices), _as_i64(edge_u), _as_i64(edge_v),
            len(indptr) - 1, _as_i64(rank_u), _as_i64(rank_v),
        )

    def psi_select(self, indptr, indices, phi, order, class_ptr, p, depth, psi):
        status = self._lib.psi_select(
            _as_i64(indptr), _as_i64(indices), _as_i64(order),
            _as_i64(class_ptr), len(class_ptr) - 1, p, _as_i64(depth),
            _as_i64(psi),
        )
        if status == 2:  # no scratch; depth and psi untouched
            return _numpy.psi_select(indptr, indices, phi, order, class_ptr, p, depth, psi)
        return status

    def luby_free_counts(self, undecided, taken, palette, free_counts):
        self._lib.luby_free_counts(
            _as_i64(undecided), len(undecided), _as_u8(taken), palette,
            _as_i64(free_counts),
        )

    def luby_candidates(self, lanes, picks, taken, palette, candidate):
        self._lib.luby_candidates(
            _as_i64(lanes), len(lanes), _as_i64(picks), _as_u8(taken), palette,
            _as_i64(candidate),
        )

    def luby_absorb(self, announce, indptr, indices, final, undecided_mask, taken):
        self._lib.luby_absorb(
            _as_i64(announce), len(announce), _as_i64(indptr), _as_i64(indices),
            _as_i64(final), _as_u8(undecided_mask), _as_u8(taken),
            taken.shape[1],
        )

    def luby_resolve(self, undecided, indptr, indices, candidate, taken, keep):
        self._lib.luby_resolve(
            _as_i64(undecided), len(undecided), _as_i64(indptr),
            _as_i64(indices), _as_i64(candidate), _as_u8(taken),
            taken.shape[1], _as_u8(keep),
        )


_SIGNATURES = {
    "linial_round": (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR),
    "defective_step": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR),
    "iter_reduce": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR),
    "kw_reduce": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR),
    "edge_rank": (_PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR),
    "psi_select": (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR),
    "luby_free_counts": (_PTR, _I64, _PTR, _I64, _PTR),
    "luby_candidates": (_PTR, _I64, _PTR, _PTR, _I64, _PTR),
    "luby_absorb": (_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64),
    "luby_resolve": (_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR),
}


def load() -> Optional[CExtensionBackend]:
    """Build (if needed) and load the C backend; ``None`` when unavailable."""
    if _SOURCE_TEXT is None:
        return None
    compiler = _compiler()
    if compiler is None:
        return None
    for use_openmp in (True, False):
        artifact = _compile(_SOURCE_TEXT, compiler, use_openmp)
        if artifact is None:
            continue
        try:
            library = ctypes.CDLL(str(artifact))
        except OSError:
            continue
        return CExtensionBackend(library, openmp=use_openmp)
    return None
