"""GCatch's five traditional checkers and the one registry that runs them.

:data:`TRADITIONAL_CHECKERS` fixes the pipeline order (report order and
dedup depend on it). :func:`run_checker` is the single name → checker
dispatch behind the engine's traditional shards. The four lock checkers
read the detector's shared lock facts (``BMOCDetector.lock_facts``), so a
detect walks each function once however many of them run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.detector.reporting import BugReport
from repro.detector.traditional.double_lock import double_lock_reports
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import forget_unlock_reports
from repro.detector.traditional.lock_order import lock_order_reports
from repro.detector.traditional.struct_race import struct_race_reports

#: checker name -> runner over (program, BMOCDetector), in pipeline order
_RUNNERS: Dict[str, Callable] = {
    "forget-unlock": lambda program, bmoc: forget_unlock_reports(bmoc.lock_facts()),
    "double-lock": lambda program, bmoc: double_lock_reports(bmoc.lock_facts()),
    "conflict-lock": lambda program, bmoc: lock_order_reports(bmoc.lock_facts()),
    "struct-race": lambda program, bmoc: struct_race_reports(bmoc.lock_facts()),
    "fatal-goroutine": lambda program, bmoc: check_fatal_goroutine(
        program, bmoc.call_graph
    ),
}

TRADITIONAL_CHECKERS: Tuple[str, ...] = tuple(_RUNNERS)


def run_checker(name: str, program, bmoc) -> List[BugReport]:
    """Run one checker by name over ``program``, reusing the alias,
    call-graph and lock-fact results of the BMOC detector ``bmoc``."""
    return _RUNNERS[name](program, bmoc)
