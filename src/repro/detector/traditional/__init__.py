"""GCatch's five traditional checkers and the one registry that runs them.

:data:`TRADITIONAL_CHECKERS` fixes the pipeline order (report order and
dedup depend on it). :func:`run_checker` is the single name → checker
dispatch behind the engine's traditional shards.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.detector.reporting import BugReport
from repro.detector.traditional.double_lock import check_double_lock
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import check_forget_unlock
from repro.detector.traditional.lock_order import check_lock_order
from repro.detector.traditional.struct_race import check_struct_races

#: checker name -> runner over (program, BMOCDetector), in pipeline order
_RUNNERS: Dict[str, Callable] = {
    "forget-unlock": lambda program, bmoc: check_forget_unlock(program, bmoc.alias),
    "double-lock": lambda program, bmoc: check_double_lock(program, bmoc.alias),
    "conflict-lock": lambda program, bmoc: check_lock_order(program, bmoc.alias),
    "struct-race": lambda program, bmoc: check_struct_races(program, bmoc.alias),
    "fatal-goroutine": lambda program, bmoc: check_fatal_goroutine(
        program, bmoc.call_graph
    ),
}

TRADITIONAL_CHECKERS: Tuple[str, ...] = tuple(_RUNNERS)


def run_checker(name: str, program, bmoc) -> List[BugReport]:
    """Run one checker by name over ``program``, reusing the alias and
    call-graph results already computed by the BMOC detector ``bmoc``."""
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown traditional checker: {name!r} "
            f"(valid checkers: {', '.join(TRADITIONAL_CHECKERS)})"
        )
    return runner(program, bmoc)
