"""Watch mode: re-analyze on change, print what the edit changed.

The watcher is a polling, content-hash watcher — ``mtime`` alone lies
(editors that preserve timestamps, checkouts that restore them), and a
content hash over a handful of project files costs microseconds per
poll. An idle poll does no parsing and no analysis; a changed poll runs
one incremental ``detect`` through the resident
:class:`~repro.service.daemon.AnalysisService` and prints the delta:
reports that appeared, reports that resolved, and how much of the shard
plan answered warm.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.engine import EngineConfig
from repro.service.daemon import AnalysisService
from repro.service.project import scan_shas


class Watcher:
    """Detects project changes between polls by content hash."""

    def __init__(self, path: str):
        self.path = path
        self._shas: Dict[str, str] = scan_shas(path)

    def poll(self) -> List[str]:
        """Paths that changed (edited, added, or removed) since last poll."""
        current = scan_shas(self.path)
        changed = sorted(
            p
            for p in set(current) | set(self._shas)
            if current.get(p) != self._shas.get(p)
        )
        self._shas = current
        return changed


def render_watch_delta(payload: dict, previous: Optional[dict]) -> List[str]:
    """Human lines for one watch-mode re-analysis."""
    from repro.report.table import render_delta

    old_renders = [r["render"] for r in (previous or {}).get("reports", [])]
    new_renders = [r["render"] for r in payload.get("reports", [])]
    shards = payload.get("shards", {})
    return render_delta(
        old_renders,
        new_renders,
        shards_total=shards.get("total", 0),
        shards_cached=shards.get("cached", 0),
        generation=payload.get("generation", 0),
    )


def run_watch(
    path: str,
    interval: float = 0.5,
    max_cycles: Optional[int] = None,
    out: Callable[[str], None] = print,
    config: Optional[EngineConfig] = None,
) -> int:
    """The ``repro watch`` loop: initial detect, then re-detect on change.

    ``max_cycles`` bounds the number of polls (tests, CI); ``None`` polls
    until interrupted. Returns the last detect's exit code, so a watch
    that ends while bugs are present exits 1 exactly like ``detect``.
    """
    service = AnalysisService(path, config=config).start()
    watcher = Watcher(path)
    payload = service.call("detect")["result"]
    out(f"watching {path} ({len(payload['reports'])} report(s), "
        f"generation {payload['generation']})")
    for report in payload["reports"]:
        out(report["render"])
    code = payload["code"]
    cycles = 0
    try:
        while max_cycles is None or cycles < max_cycles:
            cycles += 1
            time.sleep(interval)
            changed = watcher.poll()
            if not changed:
                continue
            out(f"-- change in {', '.join(changed)}")
            previous = payload
            response = service.call("detect")
            if "error" in response:
                out(f"-- analysis failed: {response['error'].get('message')}")
                continue
            payload = response["result"]
            for line in render_watch_delta(payload, previous):
                out(line)
            code = payload["code"]
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return code
