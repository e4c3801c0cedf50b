"""Forget-unlock checker: intra-procedural, path-sensitive detection of
lock-without-unlock (paper §3.5, Table 1 column "Forget Unlock")."""

from __future__ import annotations

from typing import List

from repro.analysis.alias import AliasAnalysis
from repro.detector.reporting import BlockedOp, BugReport
from repro.detector.traditional.locksets import LockFacts
from repro.ssa import ir


def check_forget_unlock(program: ir.Program, alias: AliasAnalysis) -> List[BugReport]:
    return forget_unlock_reports(LockFacts(program, alias))


def forget_unlock_reports(facts: LockFacts) -> List[BugReport]:
    return [
        BugReport(
            category="forget-unlock",
            primitive=None,
            blocked_ops=[
                BlockedOp(
                    kind="lock",
                    line=acquire_line,
                    function=name,
                    prim_label=site.label,
                )
            ],
            description=(
                f"{name} returns at line {return_line} still holding "
                f"{site.label!r} locked at line {acquire_line}"
            ),
            extra_lines=[return_line],
        )
        for name, (site, acquire_line, return_line) in facts.unreleased
    ]
