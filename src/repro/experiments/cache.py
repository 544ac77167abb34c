"""On-disk result cache for experiment scenarios.

Layout (documented in the README):

.. code-block:: text

    <cache_dir>/
        v2/                      # bumped when the payload format changes
            ab/                  # first two hex digits of the cache token
                ab3f...e1.json   # one file per scenario result
        quarantine/              # corrupt/tampered entries, moved aside

Each file holds ``{"key": <scenario key>, "payload": <result payload>,
"sha256": <payload digest>}``; the ``key`` is stored alongside the payload so
cache entries are self-describing and collisions (which would require a
SHA-256 break) are detectable, and the ``sha256`` digest (see
:func:`~repro.experiments.scenarios.payload_digest`) lets :meth:`ResultCache.get`
verify the payload byte for byte before serving it.  Writes go through a
temporary file followed by :func:`os.replace`, so concurrent writers -- e.g.
parallel benchmark workers sharing one cache -- can never leave a torn file
behind.

Entries that fail to parse or fail their digest check are *quarantined*: the
file is moved to ``<cache_dir>/quarantine/`` (keeping its name, for forensics)
and a :class:`CacheIntegrityWarning` is emitted once per cache instance.
Before quarantining existed, a corrupt file was silently re-read -- and
re-missed -- on every sweep; now the first encounter removes it from the hot
path and the scenario simply recomputes and rewrites a good entry.  The
quarantine keeps only the newest ``quarantine_keep`` entries (default
:data:`DEFAULT_QUARANTINE_KEEP`), so repeated corruption in a long-lived
multi-worker cache cannot grow it without bound.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.scenarios import payload_digest

#: Bump to invalidate every existing cache entry on a payload format change.
#: v2: entries carry a ``sha256`` payload-integrity digest.
#: v3: graph specs lost ``backend``; every family is array-built.
#: v4: the Theorem 6.1 split draws through the ``luby_draw`` counter hash,
#: so a stored randomized result no longer matches a fresh run.
CACHE_VERSION = 4

#: Environment variable overriding the shared default cache location.
CACHE_ENV_VAR = "REPRO_EXPERIMENT_CACHE"

#: Subdirectory (sibling of the versioned store) holding quarantined entries.
QUARANTINE_DIR_NAME = "quarantine"

#: Default cap on retained quarantined entries (newest kept, oldest pruned).
DEFAULT_QUARANTINE_KEEP = 32


class CacheIntegrityWarning(UserWarning):
    """A cache entry failed to parse or failed its integrity digest check."""


def default_cache_dir() -> Path:
    """The shared default cache location.

    ``$REPRO_EXPERIMENT_CACHE`` if set, otherwise a well-known directory
    under the system temp dir -- the single location used by the benchmark
    harnesses and the examples, so identical scenarios are computed once.
    """
    configured = os.environ.get(CACHE_ENV_VAR)
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-experiments-cache"


class ResultCache:
    """A content-addressed JSON store under ``root``, with integrity checks."""

    def __init__(
        self, root: os.PathLike, quarantine_keep: int = DEFAULT_QUARANTINE_KEEP
    ) -> None:
        self._base = Path(root)
        self.root = self._base / f"v{CACHE_VERSION}"
        self.quarantine_root = self._base / QUARANTINE_DIR_NAME
        #: Keep at most this many quarantined entries (newest first); older
        #: ones are pruned so a long-lived multi-worker cache under repeated
        #: corruption cannot grow its quarantine without bound.
        self.quarantine_keep = max(0, int(quarantine_keep))
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._warned = False

    def _path(self, token: str) -> Path:
        return self.root / token[:2] / f"{token}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (best-effort) and warn once per instance."""
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_root / path.name)
            self.quarantined += 1
            self._prune_quarantine()
        except OSError:
            # A shared cache owned by another user may be unmovable; the
            # entry then stays a miss, exactly as before quarantining existed.
            pass
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"quarantined corrupt cache entry {path.name} ({reason}); "
                f"further corrupt entries in this cache will be quarantined "
                f"silently under {self.quarantine_root}",
                CacheIntegrityWarning,
                stacklevel=3,
            )

    def _prune_quarantine(self) -> None:
        """Drop all but the newest ``quarantine_keep`` quarantined entries."""
        try:
            entries = sorted(
                (p for p in self.quarantine_root.iterdir() if p.is_file()),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return
        for stale in entries[self.quarantine_keep :]:
            try:
                stale.unlink()
            except OSError:
                pass

    def get(self, token: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``token``, or ``None`` on a miss.

        Entries that fail to parse or whose payload does not match the stored
        ``sha256`` digest are quarantined and count as misses, so the sweep
        recomputes (and rewrites) them instead of crashing -- or instead of
        silently trusting a tampered result.
        """
        path = self._path(token)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except json.JSONDecodeError as error:
            self._quarantine(path, f"unparseable JSON: {error}")
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if not isinstance(payload, dict):
            self._quarantine(path, "entry is not a payload-bearing object")
            self.misses += 1
            return None
        digest = entry.get("sha256")
        if digest is not None:
            actual = payload_digest(payload)
            if digest != actual:
                # Name both digests so multi-worker corruption is attributable
                # (which write was bad, whether two writers disagreed).
                self._quarantine(
                    path,
                    f"payload does not match its sha256 digest "
                    f"(entry claims {digest}, payload hashes to {actual})",
                )
                self.misses += 1
                return None
        self.hits += 1
        return payload

    def put(self, token: str, key: Dict[str, Any], payload: Dict[str, Any]) -> None:
        """Atomically store ``payload`` (with its self-describing ``key``).

        Best-effort: an unwritable cache (e.g. a shared directory owned by
        another user) degrades to not caching instead of failing the sweep.
        """
        path = self._path(token)
        entry = {"key": key, "payload": payload, "sha256": payload_digest(payload)}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                prefix=f".{token[:8]}-", suffix=".tmp", dir=path.parent
            )
        except OSError:
            return
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException as error:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            if not isinstance(error, OSError):
                raise

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
