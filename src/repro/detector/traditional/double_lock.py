"""Double-lock checker: inter-procedural, path-sensitive detection of
re-acquiring a held (non-reentrant) mutex (paper §3.5)."""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.alias import AliasAnalysis
from repro.detector.reporting import BlockedOp, BugReport
from repro.detector.traditional.locksets import CallWhileHolding, LockAcquire, LockFacts
from repro.ssa import ir


def check_double_lock(program: ir.Program, alias: AliasAnalysis) -> List[BugReport]:
    return double_lock_reports(LockFacts(program, alias))


def double_lock_reports(facts: LockFacts) -> List[BugReport]:
    reports: List[BugReport] = []
    seen: Set[Tuple] = set()
    summary = facts.summary
    for name, event in facts.events:
        if isinstance(event, LockAcquire):
            continue
        if isinstance(event, CallWhileHolding):
            # inter-procedural: a call made while holding a site the callee
            # may itself acquire
            callee_locks = summary.get(event.callee, set())
            for site in event.held & callee_locks:
                key = (name, str(site), event.line, event.callee)
                if key not in seen:
                    seen.add(key)
                    reports.append(
                        _report(
                            name,
                            site,
                            event.line,
                            f"held across call to {event.callee} which locks it again",
                        )
                    )
            continue
        # intra-procedural: a Lock while the same site is already held
        site, line = event
        key = (name, str(site), line)
        if key not in seen:
            seen.add(key)
            reports.append(_report(name, site, line, "re-locked on the same path"))
    return reports


def _report(function: str, site, line: int, why: str) -> BugReport:
    return BugReport(
        category="double-lock",
        primitive=None,
        blocked_ops=[
            BlockedOp(kind="lock", line=line, function=function, prim_label=site.label)
        ],
        description=f"double lock of {site.label!r} in {function}: {why}",
    )
