"""GCatch: the full detection system (Figure 2, left half).

Combines the BMOC detector with the five traditional checkers and returns
every report, grouped the way Table 1 groups them.

``run_gcatch`` is also the front door of :mod:`repro.engine`: pass
``jobs`` > 1 (or set ``REPRO_JOBS``), a result ``cache``, or a per-primitive
``budget`` and detection runs through the sharded engine instead of the
serial loop — with byte-identical report sets (the parity suite asserts
this over the whole corpus).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.detector.bmoc import BMOCDetector, DetectionResult, DetectionStats
from repro.obs import NULL, Collector
from repro.resilience.firewall import Firewall, RetryPolicy
from repro.resilience.incidents import Incident, overall_health
from repro.detector.reporting import BugReport, dedup_reports
from repro.detector.traditional import TRADITIONAL_CHECKERS, run_checker
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
    # per-shard records when detection ran through repro.engine
    # (List[repro.engine.ShardInfo]); None on the serial path
    shards: Optional[List] = None
    # crashes intercepted by the resilience firewall, in unit order
    incidents: List[Incident] = field(default_factory=list)
    # isolation-unit accounting on the serial path (the engine derives
    # these from its shard records instead)
    units_total: int = 0
    units_failed: int = 0

    def all_reports(self) -> List[BugReport]:
        return list(self.bmoc.reports) + list(self.traditional)

    def timed_out_shards(self) -> List:
        """Shards whose per-primitive budget ran out (engine runs only)."""
        return [s for s in (self.shards or []) if s.outcome == "timeout"]

    def failed_shards(self) -> List:
        """Shards that crashed into an incident (engine runs only)."""
        return [s for s in (self.shards or []) if s.outcome == "failed"]

    def has_timeouts(self) -> bool:
        """Any solver node-budget TIMEOUT or per-primitive budget TIMEOUT."""
        return bool(
            self.bmoc.stats.solver_timeouts
            or self.bmoc.stats.analysis_timeouts
            or self.timed_out_shards()
        )

    def health(self) -> str:
        """``ok`` / ``degraded`` / ``failed`` — see :mod:`repro.resilience`."""
        if self.shards is not None:
            return overall_health(
                self.incidents, len(self.shards), len(self.failed_shards())
            )
        return overall_health(self.incidents, self.units_total, self.units_failed)

    def by_category(self) -> Dict[str, List[BugReport]]:
        out: Dict[str, List[BugReport]] = {cat: [] for cat in TABLE1_CATEGORIES}
        for report in self.all_reports():
            out.setdefault(report.category, []).append(report)
        return out

    def count(self, category: str) -> int:
        return len(self.by_category().get(category, []))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit ``jobs`` beats ``REPRO_JOBS`` beats serial (1)."""
    if jobs is not None:
        return max(1, jobs)
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "") or 1))
    except ValueError:
        return 1


def resolve_max_retries(max_retries: Optional[int] = None) -> int:
    """Explicit ``max_retries`` beats ``REPRO_MAX_RETRIES`` beats 1."""
    if max_retries is not None:
        return max(0, max_retries)
    try:
        return max(0, int(os.environ.get("REPRO_MAX_RETRIES", "") or 1))
    except ValueError:
        return 1


def resolve_checkers(checkers=None) -> Optional[List[str]]:
    """Explicit ``checkers`` beats ``REPRO_CHECKERS`` beats all (None).

    Names are *not* validated here: an unknown name flows into its own
    analysis unit, crashes against the valid-set error message and
    surfaces as an incident — a typo degrades the run, never aborts it.
    """
    if checkers is not None:
        return list(checkers)
    env = os.environ.get("REPRO_CHECKERS")
    if not env:
        return None
    return [name.strip() for name in env.split(",") if name.strip()]


def run_gcatch(
    program: ir.Program,
    disentangle: bool = True,
    collector: Optional[Collector] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache=None,
    budget_wall_seconds: Optional[float] = None,
    budget_solver_nodes: Optional[int] = None,
    max_retries: Optional[int] = None,
    retry_timeouts: bool = False,
    checkers=None,
) -> GCatchResult:
    """Run the complete GCatch pipeline over a lowered program.

    ``collector`` (see :mod:`repro.obs`) receives per-stage spans for every
    box of the Figure 2 pipeline plus effort counters; the same collector
    is attached to the returned result as ``.trace``.

    ``jobs``/``backend``/``cache``/``budget_*`` route detection through the
    sharded :mod:`repro.engine` (defaults: ``REPRO_JOBS``/``REPRO_BACKEND``
    env vars, no cache, no budget). With everything at its default the
    original serial path runs unchanged — except that both paths now run
    behind the :mod:`repro.resilience` firewall: a crash in one channel's
    analysis or one traditional checker becomes an ``Incident`` on the
    result (``result.incidents``, ``result.health()``) and every other
    unit's reports are kept. ``max_retries`` (default: ``REPRO_MAX_RETRIES``
    env var, else 1) bounds transient-failure retries; ``checkers``
    (default: ``REPRO_CHECKERS`` env var, else all) selects traditional
    checkers by name.
    """
    resolved_jobs = resolve_jobs(jobs)
    resolved_backend = backend or os.environ.get("REPRO_BACKEND") or "thread"
    resolved_retries = resolve_max_retries(max_retries)
    resolved_checkers = resolve_checkers(checkers)
    if (
        resolved_jobs > 1
        or cache is not None
        or budget_wall_seconds is not None
        or budget_solver_nodes is not None
        or retry_timeouts
    ):
        from repro.engine import EngineConfig, run_engine

        config = EngineConfig(
            jobs=resolved_jobs,
            backend=resolved_backend,
            cache=cache,
            budget_wall_seconds=budget_wall_seconds,
            budget_solver_nodes=budget_solver_nodes,
            disentangle=disentangle,
            checkers=resolved_checkers,
            max_retries=resolved_retries,
            retry_timeouts=retry_timeouts,
        )
        return run_engine(program, config=config, collector=collector)
    obs = collector or NULL
    firewall = Firewall(
        collector=obs, policy=RetryPolicy(max_retries=resolved_retries)
    )
    units_total = 0
    units_failed = 0
    start = time.perf_counter()
    with obs.span("gcatch"):
        prepared = firewall.call(
            lambda: BMOCDetector(program, disentangle=disentangle, collector=obs),
            site="detect-init",
            label=program.filename or "",
        )
        if not prepared.ok:
            # pipeline-level crash before any per-unit analysis: a failed
            # run, reported structurally instead of via a traceback
            stats = DetectionStats()
            stats.elapsed_seconds = time.perf_counter() - start
            result = GCatchResult(
                bmoc=DetectionResult(reports=[], stats=stats),
                incidents=list(firewall.incidents),
            )
            result.elapsed_seconds = stats.elapsed_seconds
            if obs:
                result.trace = obs
            return result
        bmoc = prepared.value
        bmoc_result = bmoc.detect(firewall=firewall)
        units_total += bmoc_result.stats.channels_analyzed
        units_failed += bmoc_result.stats.channels_failed
        traditional: List[BugReport] = []
        names = (
            list(TRADITIONAL_CHECKERS) if resolved_checkers is None else resolved_checkers
        )
        with obs.span("traditional-checkers"):
            for name in names:
                units_total += 1
                guarded = firewall.call(
                    lambda name=name: run_checker(name, program, bmoc),
                    site="checker",
                    label=name,
                )
                if guarded.ok:
                    traditional.extend(guarded.value)
                else:
                    units_failed += 1
    result = GCatchResult(
        bmoc=bmoc_result,
        traditional=dedup_reports(traditional),
        incidents=list(firewall.incidents),
        units_total=units_total,
        units_failed=units_failed,
    )
    result.elapsed_seconds = time.perf_counter() - start
    if obs:
        obs.count("detect.reports", len(result.all_reports()))
        result.trace = obs
    return result
