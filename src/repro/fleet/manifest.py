"""The resumable sweep manifest: a JSONL checkpoint of unit outcomes.

One line per completed (or failed) unit, appended the moment the unit
finishes — never buffered — so a killed sweep loses at most the unit in
flight. Appends and reads go through the same torn-tail tolerant JSONL
primitives as :class:`repro.obs.journal.TelemetryJournal`: a line the
killed writer never finished is skipped, not fatal, and the unit it
would have recorded simply re-runs.

Resume contract (the driver's skip rule):

* a unit is **reusable** iff the manifest's latest record for its uid
  has ``ok: true`` and the *same fingerprint* the fresh plan computed —
  an edited unit (or a detector-version bump, which is folded into the
  fingerprint) re-runs even though its uid completed before;
* the latest record per uid wins, so a re-run simply appends over
  history (the file is an append-only log, not a table);
* failed records (``ok: false``) are never reused — a resume retries
  them.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, List, Optional

from repro.obs.journal import append_jsonl, jsonl_line, read_jsonl


class SweepManifest:
    """Append-only JSONL checkpoint, torn-line tolerant on read."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    # -- write ---------------------------------------------------------------

    def append(self, record: dict) -> None:
        with self._lock:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            append_jsonl(self.path, jsonl_line(record))

    def record_unit(
        self,
        uid: str,
        fingerprint: str,
        ok: bool,
        outcome: Optional[dict],
        meta: Optional[dict] = None,
    ) -> None:
        """The one record shape per finished unit. ``outcome`` is the
        deterministic result payload (what aggregation reads); ``meta``
        is wall-clock/placement telemetry excluded from parity."""
        record = {
            "kind": "unit",
            "uid": uid,
            "fingerprint": fingerprint,
            "ok": bool(ok),
            "outcome": outcome,
        }
        if meta:
            record["meta"] = meta
        self.append(record)

    # -- read ----------------------------------------------------------------

    def iter_records(self) -> Iterator[dict]:
        """All parseable records, file order; torn/corrupt lines skipped."""
        return read_jsonl(self.path)

    def latest_by_uid(self) -> Dict[str, dict]:
        """Last record per unit id (a re-run supersedes history)."""
        latest: Dict[str, dict] = {}
        for record in self.iter_records():
            if record.get("kind") == "unit" and isinstance(record.get("uid"), str):
                latest[record["uid"]] = record
        return latest

    def reusable_outcome(self, uid: str, fingerprint: str) -> Optional[dict]:
        """The checkpointed outcome for ``uid`` — only if it completed
        ok under the exact fingerprint the current plan computed."""
        record = self.latest_by_uid().get(uid)
        if (
            record is not None
            and record.get("ok") is True
            and record.get("fingerprint") == fingerprint
            and isinstance(record.get("outcome"), dict)
        ):
            return record["outcome"]
        return None

    def completed_uids(self) -> List[str]:
        return sorted(
            uid for uid, rec in self.latest_by_uid().items() if rec.get("ok") is True
        )


__all__ = ["SweepManifest"]
