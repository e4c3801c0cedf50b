"""The persistent telemetry journal and the ``repro top`` view.

The analysis daemon appends **one JSONL record per request** — trace id,
method, tenant, queue wait, end-to-end latency, per-stage totals, cache
lineage, incident count, outcome (including ``overloaded`` for shed
requests: the journal records every outcome, served or not), and
(for slow requests) the full span-tree exemplar — so "which request was
slow, where, and why" is answerable
after the daemon restarts, after the client disconnected, and across
daemon generations. ``repro top`` renders throughput, latency
percentiles, cache hit rate and incident rate from the journal alone.

Rotation is size-bounded: when the active file exceeds ``max_bytes`` it
is shifted to ``<path>.1`` (existing rotations shifting up, the oldest
beyond ``max_files`` dropped), so a long-lived daemon's telemetry
footprint is bounded no matter the traffic.

:func:`append_jsonl` and :func:`read_jsonl` are the crash-tolerant JSONL
primitives shared with the fleet's sweep manifest: a writer killed
mid-record leaves a torn, newline-less tail that the next append closes
off and every read skips, so a crash costs only the record in flight.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.obs.collector import Dist


def jsonl_line(record: dict) -> str:
    """``record`` as one compact, key-sorted, newline-terminated line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def append_jsonl(path: str, line: str) -> None:
    """Append one :func:`jsonl_line` to ``path`` and flush it. A torn tail
    left by a killed writer is closed off first, so only the torn record
    is lost, never the one being appended."""
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            if tail.read(1) != b"\n":
                line = "\n" + line
    with open(path, "a") as handle:
        handle.write(line)
        handle.flush()


def read_jsonl(path: str) -> Iterator[dict]:
    """Every dict record in ``path``, in file order. Torn, corrupt and
    non-object lines are skipped; a missing file yields nothing."""
    try:
        with open(path, "r", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


class TelemetryJournal:
    """Append-only JSONL journal with size-bounded rotation."""

    def __init__(self, path: str, max_bytes: int = 4_000_000, max_files: int = 3):
        self.path = path
        self.max_bytes = max(1, max_bytes)
        self.max_files = max(1, max_files)
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    # -- writing -----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Write one record; rotate first when the active file is full."""
        line = jsonl_line(record)
        with self._lock:
            if (
                os.path.exists(self.path)
                and os.path.getsize(self.path) + len(line) > self.max_bytes
            ):
                self._rotate()
            append_jsonl(self.path, line)

    def _rotate(self) -> None:
        oldest = f"{self.path}.{self.max_files - 1}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 2, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        if self.max_files > 1:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)

    # -- reading -----------------------------------------------------------

    def files(self) -> List[str]:
        """Existing journal files, oldest first (rotations, then active)."""
        out = [
            f"{self.path}.{index}"
            for index in range(self.max_files - 1, 0, -1)
            if os.path.exists(f"{self.path}.{index}")
        ]
        if os.path.exists(self.path):
            out.append(self.path)
        return out

    def iter_records(self) -> Iterator[dict]:
        """Every surviving record, oldest first, across rotations; torn or
        corrupt lines (a crash mid-write) are skipped, not fatal."""
        for path in self.files():
            yield from read_jsonl(path)

    def read(self, last: Optional[int] = None) -> List[dict]:
        records = list(self.iter_records())
        if last is not None and last >= 0:
            records = records[-last:]
        return records


#: journal outcomes for requests shed instead of served; ``quota`` is
#: kept so journals written before the quota was removed still count
#: their quota sheds as sheds
SHED_OUTCOMES = ("overloaded", "quota")


def request_record(
    *,
    trace_id: str,
    method: str,
    outcome: str,
    elapsed_seconds: float,
    queue_wait_seconds: float = 0.0,
    tenant: Optional[str] = None,
    code: Optional[int] = None,
    reports: Optional[int] = None,
    generation: Optional[int] = None,
    stages: Optional[Dict[str, float]] = None,
    cache: Optional[dict] = None,
    incidents: int = 0,
    slow: bool = False,
    exemplar: Optional[dict] = None,
) -> dict:
    """The one journal record shape the daemon writes per request."""
    record: dict = {
        "ts": time.time(),
        "trace_id": trace_id,
        "method": method,
        "outcome": outcome,
        "elapsed_seconds": round(elapsed_seconds, 6),
        "queue_wait_seconds": round(queue_wait_seconds, 6),
        "incidents": incidents,
    }
    if tenant is not None:
        record["tenant"] = tenant
    if code is not None:
        record["code"] = code
    if reports is not None:
        record["reports"] = reports
    if generation is not None:
        record["generation"] = generation
    if stages:
        record["stages"] = {name: round(sec, 6) for name, sec in stages.items()}
    if cache:
        record["cache"] = cache
    if slow:
        record["slow"] = True
    if exemplar is not None:
        record["exemplar"] = exemplar
    return record


def filter_records(
    records: List[dict], tenant: Optional[str] = None
) -> List[dict]:
    """Journal-record filter for ``repro top --tenant``. Records written
    before multi-tenancy carry no tenant field and count as 'default'."""
    if tenant is None:
        return records
    return [r for r in records if str(r.get("tenant", "default")) == tenant]


def summarize(records: List[dict]) -> dict:
    """The ``repro top`` aggregates, as plain data (rendered below,
    asserted in tests, reusable by dashboards)."""
    latency, queue_wait = Dist(), Dist()
    methods: Dict[str, int] = {}
    tenants: Dict[str, dict] = {}
    daemons: Dict[str, dict] = {}
    errors = incidents = slow = sheds = 0
    hits = misses = 0
    first_ts = last_ts = None
    for record in records:
        seconds = float(record.get("elapsed_seconds", 0.0))
        latency.add(seconds)
        queue_wait.add(float(record.get("queue_wait_seconds", 0.0)))
        method = str(record.get("method", "?"))
        methods[method] = methods.get(method, 0) + 1
        outcome = record.get("outcome")
        shed = outcome in SHED_OUTCOMES
        if shed:
            sheds += 1
        elif outcome != "ok":
            errors += 1
        tenant = str(record.get("tenant", "default"))
        per = tenants.get(tenant)
        if per is None:
            per = tenants[tenant] = {
                "requests": 0,
                "served": 0,
                "sheds": 0,
                "errors": 0,
                "latency": Dist(),
                "queue_wait": Dist(),
            }
        per["requests"] += 1
        if shed:
            per["sheds"] += 1
        else:
            per["served"] += 1
            per["latency"].add(seconds)
            per["queue_wait"].add(float(record.get("queue_wait_seconds", 0.0)))
            if outcome != "ok":
                per["errors"] += 1
        daemon = record.get("daemon")
        if daemon is not None:
            # fleet-driver records place units on named daemons; roll
            # them up so `repro top` shows the sweep's placement balance
            per_daemon = daemons.setdefault(
                str(daemon), {"units": 0, "errors": 0, "latency": Dist()}
            )
            per_daemon["units"] += 1
            per_daemon["latency"].add(seconds)
            if outcome != "ok" and not shed:
                per_daemon["errors"] += 1
        incidents += int(record.get("incidents", 0) or 0)
        slow += 1 if record.get("slow") else 0
        cache = record.get("cache") or {}
        hits += int(cache.get("hits", 0) or 0)
        misses += int(cache.get("misses", 0) or 0)
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
    window = (last_ts - first_ts) if first_ts is not None and last_ts is not None else 0.0
    probes = hits + misses
    slowest = sorted(
        records, key=lambda r: float(r.get("elapsed_seconds", 0.0)), reverse=True
    )[:5]
    by_tenant = {
        tenant: {
            "requests": per["requests"],
            "served": per["served"],
            "sheds": per["sheds"],
            "errors": per["errors"],
            "throughput_rps": per["requests"] / window if window > 0 else None,
            "p50_seconds": per["latency"].p50,
            "p95_seconds": per["latency"].p95,
            "queue_wait_p95_seconds": per["queue_wait"].p95,
        }
        for tenant, per in tenants.items()
    }
    return {
        "requests": len(records),
        "window_seconds": window,
        "throughput_rps": len(records) / window if window > 0 else None,
        "latency": latency,
        "queue_wait": queue_wait,
        "by_method": methods,
        "by_tenant": by_tenant,
        "by_daemon": {
            name: {
                "units": per["units"],
                "errors": per["errors"],
                "p50_seconds": per["latency"].p50,
                "p95_seconds": per["latency"].p95,
            }
            for name, per in daemons.items()
        },
        "error_rate": errors / len(records) if records else 0.0,
        "incident_rate": incidents / len(records) if records else 0.0,
        "slow_requests": slow,
        "sheds": sheds,
        "shed_rate": sheds / len(records) if records else 0.0,
        "cache_hit_rate": hits / probes if probes else None,
        "slowest": [
            {
                "trace_id": str(r.get("trace_id", "")),
                "method": str(r.get("method", "?")),
                "elapsed_seconds": float(r.get("elapsed_seconds", 0.0)),
            }
            for r in slowest
        ],
    }


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1000:.1f}"


def render_top(records: List[dict], title: str = "repro top") -> str:
    """The human view over journal records: one overview table, the
    per-method breakdown, and the slowest requests with their trace ids."""
    from repro.report.table import render_simple

    if not records:
        return f"{title}: journal is empty (no requests recorded yet)"
    summary = summarize(records)
    latency: Dist = summary["latency"]
    queue_wait: Dist = summary["queue_wait"]
    throughput = summary["throughput_rps"]
    overview = [
        ["requests", str(summary["requests"])],
        [
            "throughput",
            "-" if throughput is None else f"{throughput:.2f} req/s",
        ],
        ["latency p50/p95/p99 (ms)",
         f"{_ms(latency.p50)} / {_ms(latency.p95)} / {_ms(latency.p99)}"],
        ["queue wait p50/p99 (ms)", f"{_ms(queue_wait.p50)} / {_ms(queue_wait.p99)}"],
        [
            "cache hit rate",
            "-"
            if summary["cache_hit_rate"] is None
            else f"{summary['cache_hit_rate']:.0%}",
        ],
        ["error rate", f"{summary['error_rate']:.0%}"],
        ["shed rate", f"{summary['shed_rate']:.0%} ({summary['sheds']})"],
        ["incidents / request", f"{summary['incident_rate']:.2f}"],
        ["slow requests", str(summary["slow_requests"])],
    ]
    blocks = [render_simple(["metric", "value"], overview, title=title)]
    blocks.append(
        render_simple(
            ["method", "requests"],
            [[m, str(n)] for m, n in sorted(summary["by_method"].items())],
        )
    )
    by_tenant = summary["by_tenant"]
    if len(by_tenant) > 1 or any(t != "default" for t in by_tenant):
        blocks.append(
            render_simple(
                ["tenant", "requests", "req/s", "p95 (ms)", "shed"],
                [
                    [
                        tenant,
                        str(per["requests"]),
                        "-"
                        if per["throughput_rps"] is None
                        else f"{per['throughput_rps']:.2f}",
                        _ms(per["p95_seconds"]),
                        str(per["sheds"]),
                    ]
                    for tenant, per in sorted(by_tenant.items())
                ],
            )
        )
    by_daemon = summary["by_daemon"]
    if by_daemon:
        blocks.append(
            render_simple(
                ["daemon", "units", "errors", "p50 (ms)", "p95 (ms)"],
                [
                    [
                        name,
                        str(per["units"]),
                        str(per["errors"]),
                        _ms(per["p50_seconds"]),
                        _ms(per["p95_seconds"]),
                    ]
                    for name, per in sorted(by_daemon.items())
                ],
            )
        )
    blocks.append(
        render_simple(
            ["slowest", "method", "ms"],
            [
                [s["trace_id"][:16] or "-", s["method"], _ms(s["elapsed_seconds"])]
                for s in summary["slowest"]
            ],
        )
    )
    return "\n\n".join(blocks)
