"""Cross-run result cache for detection-engine shards.

Entries are keyed by the content-addressed fingerprints of
:mod:`repro.engine.fingerprint`; a key names the *complete* input of one
shard's analysis, so entries never need explicit invalidation — an edit
simply produces a different key.

Two tiers:

* an in-process memory tier (always on) holding full-fidelity
  :class:`CachedShard` objects — warm re-runs inside one process return
  the very same report objects;
* an optional disk tier (pass ``path`` or set ``REPRO_CACHE_DIR``)
  persisting pickled entries across processes.

Disk layout (documented in README "Performance")::

    <cache-dir>/objects/<first two hex chars>/<sha256 fingerprint>.pkl

A disk entry is one pickled :class:`CachedShard`. Unreadable or
version-incompatible entries are **quarantined**: the corrupt file is
deleted on first contact (counted in ``corrupt``) so it costs exactly one
failed load, then behaves as an ordinary miss — never as an error, and
never as a miss re-paid forever.

Fault injection: the ``cache-read`` / ``cache-write`` sites of
:mod:`repro.resilience.faultinject` fire here, keyed by fingerprint;
``corrupt``-mode write faults persist garbage bytes (exercising the
read-side quarantine end to end), ``raise``-mode faults surface as
incidents in the engine's firewall.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.detector.bmoc import DetectionStats
from repro.detector.reporting import BugReport
from repro.resilience.faultinject import maybe_fault


@dataclass
class CachedShard:
    """One shard's complete outcome: its reports plus the effort behind them."""

    reports: List[BugReport]
    stats: DetectionStats = field(default_factory=DetectionStats)
    outcome: str = "ok"  # 'ok' (only completed shards are cached)


class ResultCache:
    """Memory + optional-disk shard cache with hit/miss/corruption accounting.

    The disk tier is bounded: ``max_entries``/``max_bytes`` (or the
    ``REPRO_CACHE_MAX_ENTRIES``/``REPRO_CACHE_MAX_BYTES`` env vars via
    :func:`cache_from_env`) cap the object store, evicting
    least-recently-used entries — disk hits re-touch their file's mtime,
    which is the recency order — after every store. Evictions are counted
    in ``evicted`` and surface as the engine's ``cache.evict`` counter.
    Unbounded remains the default (both caps ``None``).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.path = Path(path) if path else None
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._memory: Dict[str, CachedShard] = {}
        # the multi-tenant daemon shares one cache across worker threads,
        # so the accounting (not just the dict) must be race-free
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0  # quarantined entries (deleted on first contact)
        self.evicted = 0  # disk entries removed by the size/count bound

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Optional[CachedShard]:
        if maybe_fault("cache-read", key):
            # injected corruption: drop any live copy and quarantine disk
            before = self.corrupt
            self._quarantine(key)
            dropped = self._memory.pop(key, None) is not None
            with self._lock:
                if dropped and self.corrupt == before:
                    self.corrupt += 1
                self.misses += 1
            return None
        entry = self._memory.get(key)
        if entry is None and self.path is not None:
            entry = self._load(key)
            if entry is not None:
                self._memory[key] = entry
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry

    def put(self, key: str, entry: CachedShard) -> None:
        self._memory[key] = entry
        if self.path is not None:
            self._store(key, entry)

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.path / "objects" / key[:2] / (key + ".pkl")

    def _load(self, key: str) -> Optional[CachedShard]:
        target = self._entry_path(key)
        try:
            with open(target, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (
            OSError,
            pickle.PickleError,
            EOFError,
            AttributeError,
            ImportError,
            # garbage bytes surface as any of these from the unpickler
            ValueError,
            IndexError,
            KeyError,
            UnicodeDecodeError,
        ):
            self._quarantine(key)
            return None
        if not isinstance(entry, CachedShard):
            self._quarantine(key)
            return None
        try:
            os.utime(target, None)  # refresh LRU recency on a disk hit
        except OSError:
            pass
        return entry

    def _quarantine(self, key: str) -> None:
        """Delete a corrupted disk entry so it costs exactly one failed load."""
        if self.path is None:
            return
        try:
            os.unlink(self._entry_path(key))
        except OSError:
            return
        with self._lock:
            self.corrupt += 1

    def _store(self, key: str, entry: CachedShard) -> None:
        target = self._entry_path(key)
        tmp: Optional[str] = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            # write-then-rename so concurrent writers never expose torn files
            fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                if maybe_fault("cache-write", key):
                    handle.write(b"\x80corrupt-injected")
                else:
                    pickle.dump(entry, handle)
            os.replace(tmp, target)
            tmp = None
            self._evict_disk(keep=target)
        except (OSError, pickle.PicklingError, TypeError):
            pass  # a cache that cannot persist is still a cache
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _evict_disk(self, keep: Optional[Path] = None) -> None:
        """Enforce the disk bound: drop oldest-mtime entries until the
        store fits ``max_entries``/``max_bytes`` again. The entry just
        written (``keep``) is never evicted — a bound smaller than one
        entry still caches the current shard for this run."""
        if self.path is None or (self.max_entries is None and self.max_bytes is None):
            return
        entries = []
        for target in self.path.glob("objects/*/*.pkl"):
            try:
                stat = target.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, target, stat.st_size))
        entries.sort()
        count = len(entries)
        total = sum(size for _, _, size in entries)
        for _, target, size in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            if keep is not None and target == keep:
                continue
            try:
                os.unlink(target)
            except OSError:
                continue
            count -= 1
            total -= size
            with self._lock:
                self.evicted += 1


class CacheView:
    """A per-request window onto a shared :class:`ResultCache`.

    The multi-tenant daemon serves requests from several worker threads
    against *one* cache (cross-tenant sharing is the point: fingerprints
    are content-addressed, so identical code keys identical entries).
    That makes "cache hits during *this* request" impossible to compute
    from the shared counters — a concurrent tenant's traffic would leak
    into the before/after delta. A view forwards ``get``/``put`` to the
    shared cache, counting hits and misses locally; the engine sees a
    cache, the request sees its own accounting.
    """

    def __init__(self, cache: ResultCache):
        self.cache = cache
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[CachedShard]:
        entry = self.cache.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, entry: CachedShard) -> None:
        self.cache.put(key, entry)

    def __len__(self) -> int:
        return len(self.cache)

    @property
    def corrupt(self) -> int:
        return self.cache.corrupt

    @property
    def evicted(self) -> int:
        return self.cache.evicted


def _env_int(name: str) -> Optional[int]:
    try:
        value = int(os.environ.get(name, "") or 0)
    except ValueError:
        return None
    return value if value > 0 else None


def cache_from_env() -> Optional[ResultCache]:
    """A disk-backed cache when ``REPRO_CACHE_DIR`` is set, else None.

    ``REPRO_CACHE_MAX_ENTRIES`` / ``REPRO_CACHE_MAX_BYTES`` bound the disk
    tier (unset or non-positive means unbounded).
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    return ResultCache(
        cache_dir,
        max_entries=_env_int("REPRO_CACHE_MAX_ENTRIES"),
        max_bytes=_env_int("REPRO_CACHE_MAX_BYTES"),
    )
