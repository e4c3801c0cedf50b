"""GCatch: the full detection system (Figure 2, left half).

Combines the BMOC detector with the five traditional checkers and returns
every report, grouped the way Table 1 groups them.

``run_gcatch(program, config, collector)`` is the one detect front door:
``Project.detect``, the daemon, fuzz triage and the experiments all call
it, and every call runs the engine's one shard loop with the options of
one :class:`repro.engine.EngineConfig`. The parity suites check its
report sets against the unsharded ``BMOCDetector.detect`` plus the five
checkers over the whole bug set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.detector.bmoc import DetectionResult
from repro.detector.reporting import BugReport
from repro.engine import DetectionEngine, EngineConfig, ShardInfo
from repro.obs import Collector
from repro.resilience.incidents import Incident, overall_health
from repro.ssa import ir

TABLE1_CATEGORIES = [
    "bmoc-chan",
    "bmoc-mutex",
    "forget-unlock",
    "double-lock",
    "conflict-lock",
    "struct-race",
    "fatal-goroutine",
]


@dataclass
class GCatchResult:
    bmoc: DetectionResult
    traditional: List[BugReport] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # the run's observability collector, when detection ran with one; its
    # stage table carries the per-stage timings behind elapsed_seconds
    trace: Optional[Collector] = None
    # the engine's per-shard records, in shard order
    shards: List[ShardInfo] = field(default_factory=list)
    # crashes intercepted by the resilience firewall, in shard order
    incidents: List[Incident] = field(default_factory=list)

    def all_reports(self) -> List[BugReport]:
        return list(self.bmoc.reports) + list(self.traditional)

    def timed_out_shards(self) -> List[ShardInfo]:
        """Shards whose per-primitive budget ran out."""
        return [s for s in self.shards if s.outcome == "timeout"]

    def failed_shards(self) -> List[ShardInfo]:
        """Shards that crashed into an incident."""
        return [s for s in self.shards if s.outcome == "failed"]

    def has_timeouts(self) -> bool:
        """Any solver node-budget TIMEOUT or per-primitive budget TIMEOUT."""
        return bool(
            self.bmoc.stats.solver_timeouts
            or self.bmoc.stats.analysis_timeouts
            or self.timed_out_shards()
        )

    def health(self) -> str:
        """``ok`` / ``degraded`` / ``failed`` — see :mod:`repro.resilience`."""
        return overall_health(
            self.incidents, len(self.shards), len(self.failed_shards())
        )

    def by_category(self) -> Dict[str, List[BugReport]]:
        out: Dict[str, List[BugReport]] = {cat: [] for cat in TABLE1_CATEGORIES}
        for report in self.all_reports():
            out.setdefault(report.category, []).append(report)
        return out

    def count(self, category: str) -> int:
        return len(self.by_category().get(category, []))


def run_gcatch(
    program: ir.Program,
    config: Optional[EngineConfig] = None,
    collector: Optional[Collector] = None,
) -> GCatchResult:
    """Run the complete GCatch pipeline over a lowered program.

    ``config`` (default: no cache, no budget, disentangling on) holds the
    engine options. ``collector`` (see :mod:`repro.obs`) receives
    per-stage spans for every box of the Figure 2 pipeline plus effort
    counters; the same collector is attached to the returned result as
    ``.trace``.

    Detection runs through :mod:`repro.engine`, one shard per channel and
    per traditional checker, each behind the :mod:`repro.resilience`
    firewall: a crash in one shard becomes an ``Incident`` on the result
    (``result.incidents``, ``result.health()``) and every other shard's
    reports are kept. A transient failure is retried once.
    """
    return DetectionEngine(program, config=config, collector=collector).run()
