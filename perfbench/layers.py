"""The front half of the pipeline as separately traced public calls.

``run_gcatch`` and ``build_program`` are single calls, so a trace around
them would show one opaque span. The traced runs instead make the calls
those functions make, in the same order, each inside its own span:
``parse_source_file`` → ``build_program_from_files`` → ``BMOCDetector``
→ ``analyze_channel`` per channel → the five traditional checkers. The
callers compare the composed result with the untraced call's, so a drift
between this composition and the program shows up as a failed verdict.
``TracedRun`` makes each verdict both ways and sums the composed calls'
effort counters into the per-layer metrics.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.detector.bmoc import BMOCDetector, DetectionStats
from repro.detector.reporting import BugReport, dedup_reports
from repro.detector.traditional.double_lock import check_double_lock
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import check_forget_unlock
from repro.detector.traditional.lock_order import check_lock_order
from repro.detector.traditional.struct_race import check_struct_races
from repro.ssa.builder import build_program_from_files, parse_source_file

from common import Tracer, overhead_layers, ratio


def count_instrs(program) -> int:
    return sum(len(block.instrs) for func in program for block in func.blocks)


def traced_build(tracer: Tracer, verdict: str, source: str, filename: str):
    """``build_program(source, filename)`` as its parse and SSA halves."""
    with tracer.span("golang.parse", verdict):
        file = parse_source_file(source, filename)
    with tracer.span("ssa.build", verdict):
        return build_program_from_files([file])


@dataclass
class GCatchRun:
    """What the composed ``run_gcatch`` found, plus its effort counters."""

    bmoc: List[BugReport]
    traditional: List[BugReport]
    stats: DetectionStats
    channels: int = 0


def traced_gcatch(tracer: Tracer, verdict: str, program) -> GCatchRun:
    """The serial ``run_gcatch(program)`` path, one span per layer call."""
    with tracer.span("detector.gcatch", verdict):
        with tracer.span("analysis.setup", verdict):
            detector = BMOCDetector(program)
        stats = DetectionStats()
        found: List[BugReport] = []
        channels = detector.channels_to_analyze()
        for channel in channels:
            with tracer.span("detector.channel", verdict):
                reports, _ = detector.analyze_channel(channel, stats)
            found.extend(reports)
        with tracer.span("detector.traditional", verdict):
            traditional = (
                check_forget_unlock(program, detector.alias)
                + check_double_lock(program, detector.alias)
                + check_lock_order(program, detector.alias)
                + check_struct_races(program, detector.alias)
                + check_fatal_goroutine(program, detector.call_graph)
            )
    return GCatchRun(
        bmoc=dedup_reports(found),
        traditional=dedup_reports(traditional),
        stats=stats,
        channels=len(channels),
    )


def report_counts(bmoc, traditional) -> dict:
    """Reports per category: the part of a verdict both paths must share."""
    counts: dict = {}
    for report in list(bmoc) + list(traditional):
        counts[report.category] = counts.get(report.category, 0) + 1
    return counts


class TracedRun:
    """One traced run: the span recorder, both sides' verdict times, the
    composed calls' effort counters and the failed verdicts."""

    def __init__(self):
        self.tracer = Tracer()
        self.untraced: List[float] = []
        self.traced: List[float] = []
        self.problems: List[str] = []
        self.effort: collections.Counter = collections.Counter()

    def elapsed(self) -> float:
        return sum(self.untraced) + sum(self.traced)

    def both(self, untraced: Callable[[], object], traced: Callable[[Tracer], object]) -> Tuple:
        """Make one verdict both ways, alternating which goes first so
        neither side always finds warm caches."""
        results: List[object] = [None, None]
        for side in ((0, 1) if len(self.untraced) % 2 == 0 else (1, 0)):
            started = time.perf_counter()
            if side == 0:
                results[0] = untraced()
                self.untraced.append(time.perf_counter() - started)
            else:
                results[1] = traced(self.tracer)
                self.traced.append(time.perf_counter() - started)
        return tuple(results)

    def count_gcatch(self, found: GCatchRun, program, loc: int) -> None:
        effort = self.effort
        effort["channels"] += found.channels
        effort["combinations"] += found.stats.combinations
        effort["groups"] += found.stats.groups_checked
        effort["solver_calls"] += found.stats.solver_calls
        effort["sat"] += found.stats.sat_results
        effort["instrs"] += count_instrs(program)
        effort["loc"] += loc

    def layers(self, rounds: int) -> Dict[str, tuple]:
        """Span times and front-half counts per round, plus the overhead."""
        effort, verdicts = self.effort, len(self.untraced)
        layers = self.tracer.seconds_per_round(rounds)
        layers.update({
            "golang.kloc_per_s": (
                ratio(effort["loc"] / 1000.0, self.tracer.total("golang.parse")), verdicts),
            "ssa.instrs": (effort["instrs"] / rounds, verdicts),
            "detector.channels": (effort["channels"] / rounds, verdicts),
            "detector.combinations": (effort["combinations"] / rounds, verdicts),
            "detector.groups": (effort["groups"] / rounds, verdicts),
            "constraints.solver_calls": (effort["solver_calls"] / rounds, verdicts),
            "constraints.sat_share": (
                ratio(effort["sat"], effort["solver_calls"]), effort["solver_calls"]),
            "resilience.incidents": (effort["incidents"], verdicts),
        })
        layers.update(overhead_layers(self.untraced, self.traced))
        return layers

    def result(self, layers: Dict[str, tuple]) -> dict:
        return {
            "layers": layers,
            "problems": self.problems,
            "failed": len(self.problems),
            "attempted": len(self.untraced),
            "trace": self.tracer.dump(),
        }
