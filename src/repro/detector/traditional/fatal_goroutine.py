"""testing.Fatal-in-child-goroutine checker (paper §3.5).

``t.Fatal``/``t.Fatalf``/``t.FailNow`` may only be called from the goroutine
running the test function; calling them from a child goroutine silently
fails to stop the test. The checker flags Fatal-class calls in any function
that executes on a goroutine spawned (directly or transitively) inside a
test function.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.callgraph import CallGraph
from repro.detector.reporting import BlockedOp, BugReport
from repro.ssa import ir

FATAL_METHODS = ("Fatal", "Fatalf", "FailNow")


def check_fatal_goroutine(program: ir.Program, call_graph: CallGraph) -> List[BugReport]:
    spawned = {child for func in program for _, child in call_graph.spawn_sites(func.name)}
    spawned.discard(None)
    # extend through calls: functions called from spawned functions also run
    # on the child goroutine
    reachable: Set[str] = set()
    for name in spawned:
        reachable |= call_graph.reachable_from(name)
    reports: List[BugReport] = []
    for func in program:
        if func.name not in reachable:
            continue
        for instr in func.instructions():
            if isinstance(instr, ir.Fatal) and instr.method in FATAL_METHODS:
                reports.append(
                    BugReport(
                        category="fatal-goroutine",
                        primitive=None,
                        blocked_ops=[
                            BlockedOp(
                                kind="fatal",
                                line=instr.line,
                                function=func.name,
                                prim_label="testing.T",
                            )
                        ],
                        description=(
                            f"t.{instr.method}() called at {func.name}:{instr.line}, which "
                            "runs on a child goroutine; only the test goroutine may call it"
                        ),
                    )
                )
    return reports
