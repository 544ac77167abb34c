"""Batched bit-exact replication of CPython's string-seeded random draws.

The Luby baseline derives each candidate color from
``random.Random(f"{seed}:{unique_id}:{round}").choice(available)`` so that
runs are reproducible and independent across vertices.  ``choice`` indexes
the sequence with ``_randbelow(len(available))``, so the *entire* draw is
determined by one integer: the first accepted ``getrandbits(k)`` of a
Mersenne Twister seeded from the key string.  Per draw CPython pays for a
SHA-512 of the key, a big-int conversion, and ``init_by_array`` over the
624-word state -- about 9 microseconds, which dominates any vectorized run
of the phase.

This module reproduces the draw *bit for bit* at a fraction of that cost:

* the version-2 string seeding of :meth:`random.Random.seed` is
  ``a = int.from_bytes(key + sha512(key).digest(), 'big')``; the SHA-512
  stays on :mod:`hashlib` (OpenSSL already runs it in ~0.3us), and the C
  seeder's split of ``a`` into little-endian 32-bit key words is a single
  reversed-byte array view;
* ``init_by_array`` -- the two sequential mixing loops over the 624-word
  state -- runs across all lanes simultaneously, state-index-major, so
  every one of its 1247 steps is a handful of contiguous array operations;
* ``_randbelow`` consumes Mersenne Twister outputs on demand: the ``w``-th
  output only needs state words ``w``, ``w+1`` and ``w+397``, so no full
  twist is materialized and each rejection retry is one masked gather.

Every entry point falls back to :func:`scalar_randbelow` (which *is*
``random.Random``) for degenerate cases -- tiny batches, oversized keys or
limits, absurd rejection streaks -- so the vector path is a pure
optimization.  ``tests/test_rng_kernel.py`` locks the equivalence with
hypothesis; the Luby engine-equivalence suite locks it end to end.
"""

from __future__ import annotations

import random
import sys
from functools import lru_cache
from hashlib import sha512
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["StringSeededDraws", "scalar_randbelow"]

#: Mersenne Twister state size (words).
_MT_N = 624

#: Below this many lanes the per-call numpy overhead of the 1247-step
#: ``init_by_array`` loop exceeds the scalar cost; fall back to CPython.
#: On a 2-core x86 box the vector path costs about 14 ms at any size up to
#: 800 lanes and the scalar path about 11 us per lane; they cross near 2k.
SCALAR_CUTOFF = 2048

#: Lanes are processed in chunks: ``init_by_array`` streams the whole
#: ``(624, lanes)`` state matrix twice, so the chunk is sized to keep one
#: state row plus its neighbors cache-resident (~40 MB matrix).
_CHUNK = 16384

#: ``getrandbits(k)`` consumes one MT word only for ``k <= 32``; larger
#: limits take the scalar path.
_MAX_VECTOR_LIMIT = 1 << 32

#: Keys whose integer form exceeds 624 words would change the first mixing
#: loop's length; far beyond any real seed/uid, but guarded regardless.
_MAX_KEY_BYTES = (_MT_N - 1) * 4

_U32 = np.uint32
_U64 = np.uint64


# --------------------------------------------------------------------------- #
# Mersenne Twister seeding + on-demand outputs
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=1)
def _mt_base_state() -> np.ndarray:
    """``init_genrand(19650218)`` -- the key-independent prefix of seeding."""
    state = [19650218]
    for i in range(1, _MT_N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(state, dtype=_U32)


def _key_words(blobs: np.ndarray) -> np.ndarray:
    """The ``init_by_array`` key words of each row's seeding integer.

    ``blobs`` is ``(g, T)`` uint8 holding ``key + sha512(key).digest()``
    per row -- the big-endian bytes of ``int.from_bytes(..., 'big')``.  The
    C seeder splits that (positive) integer into little-endian 32-bit
    words; the word count is fixed by the bit length, and every key here
    starts with an ASCII digit or ``-`` (a 6-bit leading byte).  Returns
    ``(keylen, g)`` uint32, key-word-major.
    """
    g, total = blobs.shape
    bits = (total - 1) * 8 + 6
    keylen = (bits - 1) // 32 + 1
    buffer = np.zeros((g, keylen * 4), dtype=np.uint8)
    buffer[:, :total] = blobs[:, ::-1]
    if sys.byteorder == "little":
        words = buffer.view(_U32)
    else:  # pragma: no cover - exercised only on big-endian hosts
        quads = buffer.reshape(g, keylen, 4).astype(_U32)
        words = (
            quads[:, :, 0]
            | (quads[:, :, 1] << _U32(8))
            | (quads[:, :, 2] << _U32(16))
            | (quads[:, :, 3] << _U32(24))
        )
    return np.ascontiguousarray(words.T)


def _init_by_array(key_words: np.ndarray) -> np.ndarray:
    """Batched ``init_by_array``: ``(keylen, g)`` key -> ``(624, g)`` state."""
    keylen, g = key_words.shape
    # key[j] + j is what the first loop adds; precompute it per key word.
    key_plus = key_words + np.arange(keylen, dtype=_U32)[:, None]
    state = np.empty((_MT_N, g), dtype=_U32)
    state[:] = _mt_base_state()[:, None]
    tmp = np.empty(g, dtype=_U32)
    mult1 = _U32(1664525)
    mult2 = _U32(1566083941)
    shift = _U32(30)

    i, j = 1, 0
    for _ in range(max(_MT_N, keylen)):
        prev = state[i - 1]
        np.right_shift(prev, shift, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mult1, out=tmp)
        np.bitwise_xor(state[i], tmp, out=state[i])
        state[i] += key_plus[j]
        i += 1
        j += 1
        if i >= _MT_N:
            state[0] = state[_MT_N - 1]
            i = 1
        if j >= keylen:
            j = 0
    for _ in range(_MT_N - 1):
        prev = state[i - 1]
        np.right_shift(prev, shift, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mult2, out=tmp)
        np.bitwise_xor(state[i], tmp, out=state[i])
        state[i] -= _U32(i)
        i += 1
        if i >= _MT_N:
            state[0] = state[_MT_N - 1]
            i = 1
    state[0] = _U32(0x80000000)
    return state


def _output_words(state: np.ndarray, w: int, lanes: np.ndarray) -> np.ndarray:
    """The ``w``-th MT output of the selected lanes, without a full twist.

    Valid for ``w <= 226`` (the first twist region, where word ``w`` only
    depends on pre-twist words ``w``, ``w+1`` and ``w+397``).
    """
    a = state[w, lanes]
    b = state[w + 1, lanes]
    y = (a & _U32(0x80000000)) | (b & _U32(0x7FFFFFFF))
    value = state[w + 397, lanes] ^ (y >> _U32(1)) ^ ((y & _U32(1)) * _U32(0x9908B0DF))
    value ^= value >> _U32(11)
    value ^= (value << _U32(7)) & _U32(0x9D2C5680)
    value ^= (value << _U32(15)) & _U32(0xEFC60000)
    value ^= value >> _U32(18)
    return value


_POWERS_OF_TWO = np.int64(1) << np.arange(33, dtype=np.int64)


def _randbelow_from_states(
    state: np.ndarray, limits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``_randbelow(limit)`` per lane from seeded states.

    Returns ``(draws, unresolved)`` where ``unresolved`` lists the (rare)
    lanes that exhausted the on-demand word budget and need the scalar path.
    """
    g = state.shape[1]
    draws = np.zeros(g, dtype=np.int64)
    # bit_length(L): index of the first power of two strictly above L.
    k = np.searchsorted(_POWERS_OF_TWO, limits, side="right").astype(_U64)
    shifts = _U64(32) - k
    pending = np.arange(g, dtype=np.int64)
    w = 0
    while len(pending) and w <= 226:
        r = _output_words(state, w, pending).astype(_U64) >> shifts[pending]
        accepted = r < limits[pending].astype(_U64)
        draws[pending[accepted]] = r[accepted].astype(np.int64)
        pending = pending[~accepted]
        w += 1
    return draws, pending


# --------------------------------------------------------------------------- #
# Public batched draw API
# --------------------------------------------------------------------------- #


def scalar_randbelow(seed: int, unique_id: int, round_index: int, limit: int) -> int:
    """The reference draw: ``random.Random(key)._randbelow(limit)``.

    ``random.Random(key).choice(seq)`` equals ``seq[scalar_randbelow(...,
    len(seq))]`` -- ``choice`` indexes with ``_randbelow`` and nothing else
    consumes the stream.
    """
    return random.Random(f"{seed}:{unique_id}:{round_index}")._randbelow(limit)


class StringSeededDraws:
    """Per-round batched draws for one ``(seed, unique_ids)`` population.

    Prepared once per phase execution: the unique ids' decimal byte strings
    are encoded up front, so a round's per-lane work is one bytes
    concatenation and one :func:`hashlib.sha512` call -- everything after
    the digest is array code.

    ``draw(rows, limits, round_index)`` returns, per lane, exactly
    ``random.Random(f"{seed}:{unique_ids[row]}:{round_index}")._randbelow(limit)``.
    """

    def __init__(
        self,
        seed: int,
        unique_ids: np.ndarray,
        scalar_cutoff: int = SCALAR_CUTOFF,
    ) -> None:
        self._seed = int(seed)
        self._prefix = f"{self._seed}:".encode("ascii")
        self._uid_strs: List[str] = [str(int(u)) for u in unique_ids.tolist()]
        self._uid_bytes: List[bytes] = [s.encode("ascii") for s in self._uid_strs]
        self._widths = np.fromiter(
            (len(b) for b in self._uid_bytes), np.int64, count=len(self._uid_bytes)
        )
        self._scalar_cutoff = scalar_cutoff

    # ------------------------------------------------------------------ #

    def draw(
        self, rows: np.ndarray, limits: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Batched ``_randbelow`` draws for dense-index lanes ``rows``.

        ``limits`` must be positive.  Lanes with ``limit == 1`` always draw
        index 0 (``choice`` of a singleton) and skip the stream entirely --
        the rejection loop cannot change a forced outcome.
        """
        count = len(rows)
        out = np.zeros(count, dtype=np.int64)
        lanes = np.flatnonzero(limits > 1)
        if len(lanes) == 0:
            return out
        if len(lanes) <= self._scalar_cutoff:
            self._scalar_into(out, lanes, rows, limits, round_index)
            return out
        suffix = b":%d" % round_index
        for start in range(0, len(lanes), _CHUNK):
            chunk = lanes[start : start + _CHUNK]
            self._draw_chunk(out, chunk, rows, limits, round_index, suffix)
        return out

    # ------------------------------------------------------------------ #

    def _scalar_into(
        self,
        out: np.ndarray,
        lanes: np.ndarray,
        rows: np.ndarray,
        limits: np.ndarray,
        round_index: int,
    ) -> None:
        seed = self._seed
        uid_strs = self._uid_strs
        for lane in lanes.tolist():
            key = f"{seed}:{uid_strs[rows[lane]]}:{round_index}"
            out[lane] = random.Random(key)._randbelow(int(limits[lane]))

    def _draw_chunk(
        self,
        out: np.ndarray,
        lanes: np.ndarray,
        rows: np.ndarray,
        limits: np.ndarray,
        round_index: int,
        suffix: bytes,
    ) -> None:
        chunk_rows = rows[lanes]
        chunk_limits = limits[lanes].astype(np.int64)
        widths = self._widths[chunk_rows]
        prefix = self._prefix
        uid_bytes = self._uid_bytes
        base_len = len(prefix) + len(suffix)
        # Buckets keyed by init_by_array key length: byte blobs of equal
        # total width share one packing pass, equal keylens one init pass.
        buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        scalars: List[np.ndarray] = []
        for width in np.unique(widths).tolist():
            members = np.flatnonzero(widths == width)
            total = base_len + int(width) + 64
            if (
                total > _MAX_KEY_BYTES
                or int(chunk_limits[members].max()) >= _MAX_VECTOR_LIMIT
            ):
                scalars.append(members)
                continue
            keys = [
                prefix + uid_bytes[row] + suffix
                for row in chunk_rows[members].tolist()
            ]
            digests = [sha512(key).digest() for key in keys]
            blobs = np.empty((len(members), total), dtype=np.uint8)
            blobs[:, : total - 64] = np.frombuffer(
                b"".join(keys), dtype=np.uint8
            ).reshape(len(members), total - 64)
            blobs[:, total - 64 :] = np.frombuffer(
                b"".join(digests), dtype=np.uint8
            ).reshape(len(members), 64)
            words = _key_words(blobs)
            buckets.setdefault(words.shape[0], []).append((members, words))
        for parts_list in buckets.values():
            members = np.concatenate([m for m, _ in parts_list])
            words = np.concatenate([w for _, w in parts_list], axis=1)
            state = _init_by_array(words)
            draws, pending = _randbelow_from_states(state, chunk_limits[members])
            out[lanes[members]] = draws
            if len(pending):
                scalars.append(members[pending])
        for members in scalars:
            self._scalar_into(out, lanes[members], rows, limits, round_index)
