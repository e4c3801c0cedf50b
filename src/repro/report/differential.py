"""Rendering for the static↔dynamic differential study (see repro.diffcheck).

The table lists one row per corpus case — static verdict, dynamic verdict,
search effort, reconciled classification — followed by a summary block with
the agreement rate and a count of unexplained disagreements (which the
benchmark suite requires to be zero).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.report.table import render_simple
from repro.runtime.explorer import STOP_FIRST_LEAK

if TYPE_CHECKING:  # pragma: no cover
    from repro.diffcheck import DifferentialReport
    from repro.fuzz.campaign import CampaignReport

HEADERS = ["Case", "Static", "Dynamic", "Runs", "Outcomes", "Class", "Explanation"]

CAMPAIGN_HEADERS = ["Program", "Motifs", "Static", "Dynamic", "Runs", "Bucket", "Explanation"]


def render_differential(report: "DifferentialReport") -> str:
    from repro import diffcheck

    table = render_simple(
        HEADERS,
        [v.row() for v in report.verdicts],
        title=(
            "Static vs dynamic oracle differential "
            f"(bound: {report.max_runs} runs x {report.max_steps} steps; "
            "Runs '+' = search truncated)"
        ),
    )
    counts = {
        "agree (bug)": len(report.by_class(diffcheck.AGREE_BUG)),
        "agree (clean)": len(report.by_class(diffcheck.AGREE_CLEAN)),
        "static-only": len(report.by_class(diffcheck.STATIC_ONLY)),
        "dynamic-only": len(report.by_class(diffcheck.DYNAMIC_ONLY)),
        "divergence": len(report.by_class(diffcheck.DIVERGENCE)),
    }
    summary = ", ".join(f"{name}: {n}" for name, n in counts.items() if n)
    lines = [
        table,
        "",
        f"{len(report.verdicts)} case(s) — {summary}",
        f"agreement rate: {report.agreement_rate:.0%}; "
        f"unexplained disagreements: {len(report.unexplained())}",
    ]
    return "\n".join(lines)


def render_campaign(report: "CampaignReport") -> str:
    """The fuzz-campaign triage table + bucket summary.

    Clean programs (agree bucket) are summarized, not listed — a 10k
    campaign's interesting rows are the disagreements and crashes.
    """
    interesting = [t for t in report.triages if t.bucket != "agree"]
    # Runs '+' marks a search a bound cut, not one its first leak ended
    rows = [
        [
            t.name,
            ",".join(t.templates) or "-",
            f"{t.static_reports}" if t.classification else "?",
            t.dynamic or "?",
            f"{t.runs}{'' if t.complete or t.stopped == STOP_FIRST_LEAK else '+'}"
            if t.classification
            else "-",
            t.bucket,
            t.explanation or t.error or ("-" if t.explained else "UNEXPLAINED"),
        ]
        for t in interesting
    ]
    config = report.config
    parts = []
    if rows:
        parts.append(
            render_simple(
                CAMPAIGN_HEADERS,
                rows,
                title=(
                    f"Fuzz campaign seed={report.seed} count={report.count} "
                    f"(bound: {config.max_runs} runs x {config.max_steps} steps, "
                    f"{config.max_total_steps} total; Runs '+' = truncated)"
                ),
            )
        )
        parts.append("")
    buckets = report.buckets()
    summary = ", ".join(f"{name}: {n}" for name, n in buckets.items() if n)
    parts.append(
        f"{len(report.triages)} program(s) in {report.elapsed_seconds:.1f}s — {summary}"
    )
    parts.append(
        f"agreement rate: {report.agreement_rate:.0%}; "
        f"unexplained: {len(report.unexplained())}; "
        f"crashes: {len(report.crashes())}"
    )
    unexplained = report.unexplained()
    if unexplained:
        parts.append("")
        parts.append("replay an unexplained finding with: "
                     "repro fuzz --seed SEED --only INDEX --dump-dir DIR")
        for t in unexplained:
            parts.append(f"  {t.name}: index {t.index} "
                         f"[{','.join(t.templates)}] {t.classification}")
    return "\n".join(parts)
