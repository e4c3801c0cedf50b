"""Conflicting-lock-order checker: deadlocks from acquiring two locks in
opposite orders in different code paths (paper §3.5)."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.alias import AliasAnalysis, Site
from repro.detector.reporting import BlockedOp, BugReport
from repro.detector.traditional.locksets import CallWhileHolding, LockAcquire, LockFacts
from repro.ssa import ir


def check_lock_order(program: ir.Program, alias: AliasAnalysis) -> List[BugReport]:
    return lock_order_reports(LockFacts(program, alias))


def lock_order_reports(facts: LockFacts) -> List[BugReport]:
    # collect acquisition-order edges: (outer site -> inner site, where)
    edges: Dict[Tuple[Site, Site], Tuple[str, int]] = {}
    summary = facts.summary
    for name, event in facts.events:
        if isinstance(event, LockAcquire):
            for outer in event.held_before:
                if outer != event.site:
                    edges.setdefault((outer, event.site), (name, event.line))
        elif isinstance(event, CallWhileHolding):
            for inner in summary.get(event.callee, set()):
                for outer in event.held:
                    if outer != inner:
                        edges.setdefault((outer, inner), (name, event.line))
    reports: List[BugReport] = []
    seen: Set[frozenset] = set()
    for (a, b), (func_ab, line_ab) in edges.items():
        reverse = edges.get((b, a))
        if reverse is None:
            continue
        pair = frozenset((str(a), str(b)))
        if pair in seen:
            continue
        seen.add(pair)
        func_ba, line_ba = reverse
        reports.append(
            BugReport(
                category="conflict-lock",
                primitive=None,
                blocked_ops=[
                    BlockedOp(kind="lock", line=line_ab, function=func_ab, prim_label=b.label),
                    BlockedOp(kind="lock", line=line_ba, function=func_ba, prim_label=a.label),
                ],
                description=(
                    f"locks {a.label!r} and {b.label!r} acquired in conflicting orders "
                    f"({func_ab}:{line_ab} vs {func_ba}:{line_ba})"
                ),
            )
        )
    return reports
