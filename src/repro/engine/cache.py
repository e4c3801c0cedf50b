"""Cross-run result cache for detection-engine shards.

Entries are keyed by the content-addressed fingerprints of
:mod:`repro.engine.fingerprint`; a key names the *complete* input of one
shard's analysis, so entries never need explicit invalidation — an edit
simply produces a different key.

Two tiers:

* an in-process memory tier (always on) holding full-fidelity
  :class:`CachedShard` objects — warm re-runs inside one process return
  the very same report objects;
* an optional, unbounded disk tier (pass ``path``; the CLI's
  ``--cache-dir``) persisting pickled entries across processes.

Disk layout (documented in README "Performance")::

    <cache-dir>/objects/<first two hex chars>/<sha256 fingerprint>.pkl

A disk entry is one pickled :class:`CachedShard`. Unreadable or
version-incompatible entries are **quarantined**: the corrupt file is
deleted on first contact (counted in ``corrupt``) so it costs exactly one
failed load, then behaves as an ordinary miss — never as an error, and
never as a miss re-paid forever.

The cache is storage only: hits and misses are counted once per probe,
by :class:`~repro.engine.engine.DetectionEngine`, as its ``cache.hit`` /
``cache.miss`` counters.

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
    """Memory + optional-disk shard cache with corruption quarantine."""

    def __init__(self, path: Optional[str] = None):
        self.path = Path(path) if path else None
        self._memory: Dict[str, CachedShard] = {}
        # the multi-tenant daemon shares one cache across worker threads,
        # so the quarantine count (not just the dict) must be race-free
        self._lock = threading.Lock()
        self.corrupt = 0  # quarantined entries (deleted on first contact)

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
            return None
        entry = self._memory.get(key)
        if entry is None and self.path is not None:
            entry = self._load(key)
            if entry is not None:
                self._memory[key] = entry
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
        try:
            with open(self._entry_path(key), "rb") as handle:
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
        except (OSError, pickle.PicklingError, TypeError):
            pass  # a cache that cannot persist is still a cache
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
