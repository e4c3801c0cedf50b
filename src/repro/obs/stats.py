"""Machine-readable stats emission and human-readable rendering.

One JSON schema (``repro.obs/2``) serves every surface that exports
numbers: ``repro stats --json``, ``repro explore --json``,
``repro diffcheck --json``, ``repro fuzz --json``, the daemon's ``stats``
method and the ``benchmarks/`` per-stage recordings all emit through
:func:`json_dumps`. :func:`snapshot` freezes a :class:`Collector` one
way: nothing reads a snapshot back into a collector.

Schema (top-level keys of a collector snapshot)::

    {
      "schema":   "repro.obs/2",
      "name":     "<run label>",
      "trace_id": str,                      # optional: the run's trace
      "stages":   [{"name": str, "count": int, "seconds": float}, ...],
      "counters": {str: int, ...},
      "gauges":   {str: float, ...},
      "distributions": {str: {"count": int, "total": float,
                              "min": float|null, "max": float|null,
                              "p50": float|null, "p95": float|null,
                              "p99": float|null,
                              "buckets": [int, ...],     # histogram counts
                              "samples": [float, ...]},  # bounded reservoir
                        ...},
      "spans":    [<span tree: {"name", "seconds", "span_id",
                                "parent_id"?, "trace_id"?, "attrs"?,
                                "children"?}>, ...]
    }

``stages`` is the aggregated per-stage table — pipeline stages first, in
pipeline order, then any extra span names in first-seen order.

Version history: ``repro.obs/1`` had means-only distributions and
anonymous spans.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs.collector import PIPELINE_STAGES, Collector

SCHEMA = "repro.obs/2"


def json_dumps(payload: object) -> str:
    """The one JSON emitter: stable key order, indented, ASCII-safe."""
    return json.dumps(payload, indent=2, sort_keys=False, default=str)


def snapshot(collector: Collector, extra: Optional[dict] = None) -> dict:
    """Freeze a collector into the documented JSON-serializable schema."""
    totals = collector.stage_totals()
    ordered = [name for name in PIPELINE_STAGES if name in totals]
    ordered += [name for name in totals if name not in PIPELINE_STAGES]
    payload = {
        "schema": SCHEMA,
        "name": collector.name,
        "stages": [
            {"name": name, "count": totals[name][0], "seconds": totals[name][1]}
            for name in ordered
        ],
        "counters": dict(sorted(collector.counters.items())),
        "gauges": dict(sorted(collector.gauges.items())),
        "distributions": {
            name: dist.to_dict() for name, dist in sorted(collector.dists.items())
        },
        "spans": [span.to_dict() for span in collector.spans],
    }
    if collector.trace_id:
        payload["trace_id"] = collector.trace_id
    if extra:
        payload.update(extra)
    return payload


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def render_stats(collector: Collector, title: str = "pipeline stages") -> str:
    """The per-stage table plus counters/gauges/distributions, as text."""
    from repro.report.table import render_simple

    totals = collector.stage_totals()
    ordered = [name for name in PIPELINE_STAGES if name in totals]
    ordered += [name for name in totals if name not in PIPELINE_STAGES]
    rows: List[List[str]] = [
        [name, str(totals[name][0]), f"{totals[name][1] * 1000:.3f}"] for name in ordered
    ]
    blocks = [render_simple(["stage", "entries", "total ms"], rows, title=title)]
    if collector.counters:
        blocks.append(
            render_simple(
                ["counter", "value"],
                [[k, str(v)] for k, v in sorted(collector.counters.items())],
            )
        )
    if collector.gauges:
        blocks.append(
            render_simple(
                ["gauge", "value"],
                [[k, str(v)] for k, v in sorted(collector.gauges.items())],
            )
        )
    if collector.dists:
        blocks.append(
            render_simple(
                ["distribution", "count", "mean", "min", "p50", "p95", "p99", "max"],
                [
                    [
                        k,
                        str(d.count),
                        f"{d.mean:.2f}",
                        str(d.min),
                        _fmt(d.p50),
                        _fmt(d.p95),
                        _fmt(d.p99),
                        str(d.max),
                    ]
                    for k, d in sorted(collector.dists.items())
                ],
            )
        )
    return "\n\n".join(blocks)
