"""Fleet aggregation: merge per-unit results into one deterministic report.

The aggregate is the sweep's parity surface: :func:`canonical_bytes`
over it must be byte-identical whether the units ran serially in one
process, across N daemons, or across a kill + resume. That works because
*outcomes* keep only the deterministic slice of a daemon's ``detect`` /
``fuzz`` payload — reports, exit code, health, counts — and every
wall-clock, placement, generation, or cache field lives in the
*telemetry* side channel (:func:`merge_telemetry`), which feeds
``BENCH_fleet.json`` and ``repro top`` but never the canonical bytes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.fleet.plan import SweepPlan
from repro.obs import Dist

FLEET_REPORT_KIND = "repro.fleet/1"


def outcome_from_detect(payload: dict) -> dict:
    """The deterministic slice of a daemon ``detect`` payload."""
    return {
        "kind": "project",
        "code": payload.get("code"),
        "health": payload.get("health"),
        "timed_out": bool(payload.get("timed_out")),
        "bmoc": payload.get("bmoc", 0),
        "traditional": payload.get("traditional", 0),
        "reports": [
            {
                "category": r.get("category"),
                "description": r.get("description"),
                "lines": r.get("lines"),
                "render": r.get("render"),
            }
            for r in payload.get("reports", [])
        ],
    }


def outcome_from_fuzz(payload: dict) -> dict:
    """The deterministic slice of a daemon ``fuzz`` payload: triage
    dicts carry no timing, and bucket order is generation order."""
    return {
        "kind": "fuzz",
        "triages": payload.get("triages", []),
        "unexplained": payload.get("unexplained", 0),
        "crashes": payload.get("crashes", 0),
    }


def aggregate(plan: SweepPlan, outcomes: Dict[str, dict]) -> dict:
    """The fleet report: units in plan order, totals across them.

    ``outcomes`` maps unit uid -> deterministic outcome dict (fresh or
    replayed from the manifest — indistinguishable by construction).
    """
    units = []
    codes: Dict[str, int] = {}
    health: Dict[str, int] = {}
    categories: Dict[str, int] = {}
    buckets: Dict[str, int] = {}
    total_reports = 0
    incomplete = []
    for unit in plan.units:
        outcome = outcomes.get(unit.uid)
        if outcome is None:
            incomplete.append(unit.uid)
            continue
        units.append(
            {"uid": unit.uid, "fingerprint": unit.fingerprint, "outcome": outcome}
        )
        if outcome.get("kind") == "project":
            codes[str(outcome.get("code"))] = codes.get(str(outcome.get("code")), 0) + 1
            health[str(outcome.get("health"))] = (
                health.get(str(outcome.get("health")), 0) + 1
            )
            for report in outcome.get("reports", []):
                total_reports += 1
                cat = str(report.get("category"))
                categories[cat] = categories.get(cat, 0) + 1
        else:
            for triage in outcome.get("triages", []):
                bucket = str(triage.get("bucket"))
                buckets[bucket] = buckets.get(bucket, 0) + 1
    totals = {
        "units": len(plan.units),
        "completed": len(units),
        "incomplete": sorted(incomplete),
        "reports": total_reports,
        "by_code": codes,
        "by_health": health,
        "by_category": categories,
    }
    if buckets:
        totals["by_bucket"] = buckets
    return {"kind": FLEET_REPORT_KIND, "plan": plan.kind, "units": units, "totals": totals}


def canonical_bytes(report: dict) -> bytes:
    """The byte-parity surface: compact, sorted-keys, newline-terminated."""
    return (
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def render(report: dict) -> str:
    """Human summary of a fleet report."""
    totals = report["totals"]
    lines = [
        f"fleet sweep: {totals['completed']}/{totals['units']} unit(s) complete, "
        f"{totals['reports']} report(s)"
    ]
    if totals.get("by_category"):
        cats = ", ".join(
            f"{cat}: {n}" for cat, n in sorted(totals["by_category"].items())
        )
        lines.append(f"  by category: {cats}")
    if totals.get("by_health"):
        hs = ", ".join(f"{h}: {n}" for h, n in sorted(totals["by_health"].items()))
        lines.append(f"  by health: {hs}")
    if totals.get("by_bucket"):
        bs = ", ".join(f"{b}: {n}" for b, n in sorted(totals["by_bucket"].items()))
        lines.append(f"  by bucket: {bs}")
    for uid in totals["incomplete"]:
        lines.append(f"  INCOMPLETE: {uid}")
    buggy = [
        u
        for u in report["units"]
        if u["outcome"].get("kind") == "project" and u["outcome"].get("reports")
    ]
    for unit in buggy[:20]:
        lines.append(
            f"  {unit['uid']}: {len(unit['outcome']['reports'])} report(s), "
            f"code {unit['outcome']['code']}"
        )
    if len(buggy) > 20:
        lines.append(f"  ... {len(buggy) - 20} more unit(s) with reports")
    return "\n".join(lines)


def merge_telemetry(
    metas: Dict[str, dict],
    elapsed_seconds: float,
    restarts: int = 0,
    incidents: int = 0,
) -> dict:
    """Fleet-level telemetry from per-unit dispatch metadata.

    Everything here is wall-clock or placement derived — real, useful,
    and deliberately *outside* the canonical report bytes.
    """
    unit_seconds = Dist()
    attempts = 0
    skipped = 0
    by_daemon: Dict[str, int] = {}
    cache_hits = cache_misses = 0
    for meta in metas.values():
        if meta.get("skipped"):
            skipped += 1
            continue
        unit_seconds.add(float(meta.get("elapsed_seconds", 0.0)))
        attempts += int(meta.get("attempts", 1))
        daemon = meta.get("daemon")
        if daemon is not None:
            by_daemon[str(daemon)] = by_daemon.get(str(daemon), 0) + 1
        cache = meta.get("cache") or {}
        cache_hits += int(cache.get("hits", 0) or 0)
        cache_misses += int(cache.get("misses", 0) or 0)
    executed = len(metas) - skipped
    probes = cache_hits + cache_misses
    return {
        "elapsed_seconds": elapsed_seconds,
        "units": len(metas),
        "executed": executed,
        "skipped": skipped,
        "units_per_second": executed / elapsed_seconds if elapsed_seconds > 0 else None,
        "unit_p50_seconds": unit_seconds.p50,
        "unit_p95_seconds": unit_seconds.p95,
        "dispatch_attempts": attempts,
        "redispatches": max(0, attempts - executed),
        "by_daemon": by_daemon,
        "restarts": restarts,
        "incidents": incidents,
        "cache_hit_rate": cache_hits / probes if probes else None,
    }


__all__ = [
    "FLEET_REPORT_KIND",
    "aggregate",
    "canonical_bytes",
    "merge_telemetry",
    "outcome_from_detect",
    "outcome_from_fuzz",
    "render",
]
