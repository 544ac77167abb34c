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
the phases, the ``L(G)`` builder and the test suite can swap one provider
for the other.  Thirteen steps: the nine phase kernels, the builder's twin
scan (``entry_twins``) and incidence gather (``line_gather``), the unit-disk
sweep (``geo_pairs``) and the level-view filter (``label_filter``).  The
five kernels that allocate scratch (``defective_step``, ``iter_reduce``,
``kw_reduce``, ``psi_select``, ``entry_twins``) report a failed allocation
as status 2 with their outputs untouched, as do ``defective_step`` past its
fastmod range (``q >= 2**16``) and ``kw_reduce`` and ``psi_select`` past
int32; their wrappers then run the numpy step on the same arrays.  The last
two steps size their output from the data: each wrapper runs the C count
pass, takes the prefix sum and allocates in numpy, then runs the C fill
pass, so their C bodies allocate nothing.

When OpenMP is unavailable the build retries without it (serial kernels,
still fused); when no C compiler is present :func:`load` returns ``None``
and the numpy steps run.
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
_F64 = ctypes.c_double
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


def _as_f64(array: np.ndarray) -> int:
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ValueError("kernel coordinate arrays must be C-contiguous float64")
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
        # The kernels returning a status.
        for symbol in ("defective_step", "psi_select", "entry_twins"):
            getattr(library, symbol).restype = _I64

    def max_threads(self) -> int:
        return int(self._lib.repro_max_threads())

    def set_threads(self, count: int) -> None:
        self._lib.repro_set_threads(int(count))

    # -- kernel wrappers (signatures mirror repro.local_model.kernels._numpy) --

    def defective_step(self, indptr, indices, colors, q, num_digits, out):
        status = self._lib.defective_step(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, q, num_digits, _as_i64(out),
        )
        if status == 2:  # q past the fastmod range, or no digit table; out untouched
            _numpy.defective_step(indptr, indices, colors, q, num_digits, out)

    def iter_reduce(self, indptr, indices, colors, palette, target, total_rounds, status):
        self._lib.iter_reduce(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, palette, target, total_rounds, _as_i64(status),
        )
        if status[0] == 2:  # no scratch; colors untouched
            status[0] = 0
            _numpy.iter_reduce(indptr, indices, colors, palette, target, total_rounds, status)

    def kw_reduce(self, indptr, indices, colors, k, total_rounds, status):
        self._lib.kw_reduce(
            _as_i64(indptr), _as_i64(indices), _as_i64(colors),
            len(indptr) - 1, k, total_rounds, _as_i64(status),
        )
        if status[0] == 2:  # no scratch, or past int32; colors untouched
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

    def entry_twins(self, indptr, indices, eid, own):
        if not len(eid) == len(own) == len(indices):
            raise ValueError("eid and own must have one slot per CSR entry")
        status = self._lib.entry_twins(
            _as_i64(indptr), _as_i64(indices), len(indptr) - 1, _as_i64(eid), _as_i64(own)
        )
        if status == 2:  # no cursor; eid and own untouched
            _numpy.entry_twins(indptr, indices, eid, own)

    def line_gather(self, indptr, chunk_rows, own, eid, line_indptr, out):
        if not len(chunk_rows) == len(own) == 2 * (len(line_indptr) - 1):
            raise ValueError("chunk_rows and own must have two chunks per line-graph row")
        if len(out) != line_indptr[-1]:
            raise ValueError("out must have one slot per line-graph entry")
        self._lib.line_gather(
            _as_i64(indptr), _as_i64(chunk_rows), _as_i64(own), _as_i64(eid),
            _as_i64(line_indptr), len(line_indptr) - 1, _as_i64(out),
        )

    def geo_pairs(self, x, y, cx, cy, start, cells, radius_sq, by_cell):
        n = len(x)
        if not len(y) == len(cx) == len(cy) == len(by_cell) == n:
            raise ValueError("x, y, cx, cy and by_cell must have one entry per point")
        if len(start) != (cells + 2) * cells + 1:
            raise ValueError("start must have one entry per cell of cells + 2 columns, plus one")
        points = (_as_f64(x), _as_f64(y), _as_i64(cx), _as_i64(cy), _as_i64(start), n, cells)
        offsets = np.zeros(3 * n + 1, dtype=np.int64)
        counts = offsets[1:]
        self._lib.geo_pairs_count(*points, radius_sq, _as_i64(counts))
        np.cumsum(counts, out=counts)
        u = np.empty(offsets[-1], dtype=np.int64)
        v = np.empty(offsets[-1], dtype=np.int64)
        self._lib.geo_pairs_fill(
            *points, radius_sq, _as_i64(by_cell), _as_i64(offsets), _as_i64(u), _as_i64(v)
        )
        return u, v

    def label_filter(self, indptr, indices, labels):
        n = len(indptr) - 1
        if len(labels) != n:
            raise ValueError("labels must have one entry per CSR row")
        csr = (_as_i64(indptr), _as_i64(indices), _as_i64(labels), n)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        counts = new_indptr[1:]
        self._lib.label_filter_count(*csr, _as_i64(counts))
        np.cumsum(counts, out=counts)
        out = np.empty(new_indptr[-1], dtype=np.int64)
        self._lib.label_filter_fill(*csr, _as_i64(new_indptr), _as_i64(out))
        return new_indptr, out


_SIGNATURES = {
    "defective_step": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR),
    "iter_reduce": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR),
    "kw_reduce": (_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR),
    "edge_rank": (_PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR),
    "psi_select": (_PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR),
    "luby_free_counts": (_PTR, _I64, _PTR, _I64, _PTR),
    "luby_candidates": (_PTR, _I64, _PTR, _PTR, _I64, _PTR),
    "luby_absorb": (_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64),
    "luby_resolve": (_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR),
    "entry_twins": (_PTR, _PTR, _I64, _PTR, _PTR),
    "line_gather": (_PTR, _PTR, _PTR, _PTR, _PTR, _I64, _PTR),
    "geo_pairs_count": (_PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _F64, _PTR),
    "geo_pairs_fill": (_PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _F64, _PTR, _PTR, _PTR, _PTR),
    "label_filter_count": (_PTR, _PTR, _PTR, _I64, _PTR),
    "label_filter_fill": (_PTR, _PTR, _PTR, _I64, _PTR, _PTR),
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
