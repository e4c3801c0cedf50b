"""Struct-field data-race checker (paper §3.5).

Following RacerX-style lockset inference: collect the lockset at every
struct-field access, and when a field is protected by some lock for *most*
accesses, report the unprotected accesses as races.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.analysis.alias import AliasAnalysis, Site
from repro.detector.reporting import BlockedOp, BugReport
from repro.detector.traditional.locksets import FieldAccess, LockFacts
from repro.ssa import ir

# a field is "mostly protected" when at least this fraction of its accesses
# hold some common lock (the paper says "most accesses")
PROTECTED_FRACTION = 0.6
MIN_ACCESSES = 3


def check_struct_races(program: ir.Program, alias: AliasAnalysis) -> List[BugReport]:
    return struct_race_reports(LockFacts(program, alias))


def struct_race_reports(facts: LockFacts) -> List[BugReport]:
    accesses: Dict[Tuple[str, str], List[Tuple[str, FieldAccess]]] = defaultdict(list)
    for name, access in facts.accesses:
        accesses[(access.struct_hint, access.field_name)].append((name, access))

    reports: List[BugReport] = []
    for (hint, field_name), entries in accesses.items():
        total = len(entries)
        if total < MIN_ACCESSES:
            continue
        # find the lock that protects the largest share of accesses
        counts: Dict[Site, int] = defaultdict(int)
        for _, access in entries:
            for site in access.lockset:
                counts[site] += 1
        if not counts:
            continue
        best_site = max(counts, key=lambda s: counts[s])
        if counts[best_site] / total < PROTECTED_FRACTION:
            continue
        unprotected = [
            (func_name, access)
            for func_name, access in entries
            if best_site not in access.lockset
        ]
        if not unprotected or not any(a.is_write for _, a in unprotected):
            # read-only unprotected accesses of a mostly-protected field are
            # not reported (matches lockset-checker practice)
            continue
        for func_name, access in unprotected:
            reports.append(
                BugReport(
                    category="struct-race",
                    primitive=None,
                    blocked_ops=[
                        BlockedOp(
                            kind="write" if access.is_write else "read",
                            line=access.line,
                            function=func_name,
                            prim_label=f"{hint}.{field_name}",
                        )
                    ],
                    description=(
                        f"field {hint}.{field_name} is protected by {best_site.label!r} "
                        f"in {counts[best_site]}/{total} accesses but not at "
                        f"{func_name}:{access.line}"
                    ),
                )
            )
    return reports
