"""The BMOC detector: Algorithm 1 of the paper, end to end.

For every channel in the program: disentangle (compute scope and Pset),
enumerate per-goroutine paths and path combinations, compute suspicious
groups, encode Φ_R ∧ Φ_B and hand it to the solver. Each satisfiable group
becomes a bug report carrying the witness schedule.

``disentangle=False`` reproduces the paper's ablation (§5.2): every channel
is analyzed with *all* primitives in the whole program starting from
``main``, which is dramatically slower — the measurement behind the
">115x slowdown" result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.analysis.dependency import build_dependency_graph, compute_pset
from repro.analysis.primitives import Primitive, find_primitives
from repro.analysis.scope import Scope, compute_all_scopes
from repro.constraints.encoding import StopPoint, encode
from repro.constraints.solver import TIMEOUT, solve_detailed
from repro.obs import (
    NULL,
    STAGE_ALIAS,
    STAGE_CALLGRAPH,
    STAGE_DEPGRAPH,
    STAGE_DISENTANGLE,
    STAGE_ENCODE,
    STAGE_LOCKSETS,
    STAGE_PATH_ENUM,
    STAGE_SOLVE,
    STAGE_SUSPICIOUS,
)
from repro.detector.paths import (
    OpEvent,
    PathCombination,
    PathEnumerator,
    SelectChoice,
    _definition_counts,
    enumerate_combinations,
)
from repro.detector.reporting import BlockedOp, BugReport, dedup_reports
from repro.detector.suspicious import enumerate_groups
from repro.detector.traditional.locksets import LockFacts
from repro.resilience.faultinject import maybe_fault


class BudgetExceeded(Exception):
    """A per-primitive analysis budget ran out (wall clock or solver nodes)."""


class AnalysisBudget:
    """Per-primitive effort limits (the paper's per-package Z3 timeout).

    ``wall_seconds`` caps one primitive's total analysis wall-clock time;
    ``solver_nodes`` caps the total decision-procedure nodes it may spend
    across all its solver calls (a single call is capped by the rest of
    that total, else by the solver's own
    :data:`~repro.constraints.solver.MAX_NODES`).
    The budget is consulted between combinations and before every solve,
    so exceeding it degrades gracefully: reports found so far are kept and
    the primitive is marked TIMEOUT.
    """

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        solver_nodes: Optional[int] = None,
    ):
        self.wall_seconds = wall_seconds
        self.solver_nodes = solver_nodes
        self.deadline = (
            time.perf_counter() + wall_seconds if wall_seconds is not None else None
        )
        self.nodes_left = solver_nodes

    def check(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceeded("wall-clock budget exhausted")
        if self.nodes_left is not None and self.nodes_left <= 0:
            raise BudgetExceeded("solver-node budget exhausted")

    def per_solve_nodes(self) -> Optional[int]:
        return self.nodes_left

    def charge(self, nodes: int) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= nodes


@dataclass
class DetectionStats:
    channels_analyzed: int = 0
    combinations: int = 0
    groups_checked: int = 0
    solver_calls: int = 0
    sat_results: int = 0
    solver_timeouts: int = 0  # solver calls that hit their node budget
    analysis_timeouts: int = 0  # primitives whose AnalysisBudget ran out
    elapsed_seconds: float = 0.0

    def merge(self, other: "DetectionStats") -> None:
        """Fold another shard's stats into this one (repro.engine)."""
        self.channels_analyzed += other.channels_analyzed
        self.combinations += other.combinations
        self.groups_checked += other.groups_checked
        self.solver_calls += other.solver_calls
        self.sat_results += other.sat_results
        self.solver_timeouts += other.solver_timeouts
        self.analysis_timeouts += other.analysis_timeouts


@dataclass
class DetectionResult:
    reports: List[BugReport]
    stats: DetectionStats

    def bmoc_channel_bugs(self) -> List[BugReport]:
        return [r for r in self.reports if r.category == "bmoc-chan"]

    def bmoc_mutex_bugs(self) -> List[BugReport]:
        return [r for r in self.reports if r.category == "bmoc-mutex"]


class BMOCDetector:
    """Detects blocking misuse-of-channel bugs in a lowered program."""

    def __init__(
        self,
        program,
        disentangle: bool = True,
        max_loop_unroll: int = 2,
        prune_infeasible: bool = True,
        collector=None,
        solver_max_nodes: Optional[int] = None,
    ):
        self.program = program
        self.disentangle = disentangle
        self.max_loop_unroll = max_loop_unroll
        self.prune_infeasible = prune_infeasible
        self.solver_max_nodes = solver_max_nodes
        self.collector = collector or NULL
        with self.collector.span(STAGE_CALLGRAPH):
            self.call_graph = build_call_graph(program)
        with self.collector.span(STAGE_ALIAS):
            self.alias = run_alias_analysis(program, self.call_graph)
        with self.collector.span(STAGE_DEPGRAPH):
            self.pmap = find_primitives(program, self.call_graph, self.alias)
            self.dep_graph = build_dependency_graph(program, self.call_graph, self.pmap)
        with self.collector.span(STAGE_DISENTANGLE):
            self.scopes = compute_all_scopes(self.pmap, self.call_graph)
        # shared across channels: the program-wide definition counts every
        # per-root PathEnumerator needs, and the per-channel Pset memo also
        # consumed by the engine's fingerprinting pass
        self._def_counts = _definition_counts(program)
        self._pset_memo: Dict[int, List[Primitive]] = {}
        # shared across the lock checkers: at most one LockFacts, created
        # here so that every for_shard clone fills and reads the same list
        self._lock_memo: List[LockFacts] = []

    def pset_of(self, channel: Primitive) -> List[Primitive]:
        """The channel's Pset (paper §4.2), derived once and shared between
        the analysis itself and the engine's shard fingerprinting."""
        pset = self._pset_memo.get(id(channel))
        if pset is None:
            pset = compute_pset(channel, self.dep_graph, self.scopes)
            self._pset_memo[id(channel)] = pset
        return pset

    def lock_facts(self) -> LockFacts:
        """The program's lock facts (paper §3.5), shared by the four lock
        checkers: the first of their shards to run walks every function
        inside a ``locksets`` span, and the rest reuse its walk. A walk
        that raises is not kept, so each shard that needs it fails on its
        own."""
        if not self._lock_memo:
            with self.collector.span(STAGE_LOCKSETS):
                facts = LockFacts(self.program, self.alias)
            self.collector.count("locksets.functions", len(self.program.functions))
            self._lock_memo.append(facts)
        return self._lock_memo[0]

    def for_shard(self, collector) -> "BMOCDetector":
        """A shallow clone sharing every analysis artifact but reporting
        into its own collector — one per engine shard, so a shard's
        telemetry can be dropped whole when the shard fails."""
        clone = object.__new__(BMOCDetector)
        clone.__dict__.update(self.__dict__)
        clone.collector = collector or NULL
        return clone

    # -- public ---------------------------------------------------------------

    def detect(self) -> DetectionResult:
        """Analyze every channel, unguarded and uncached: the plain
        Algorithm 1 loop behind :func:`detect_bmoc` (patch validation,
        ``repro coverage``) and the reference of the engine parity suites."""
        start = time.perf_counter()
        stats = DetectionStats()
        reports: List[BugReport] = []
        for channel in self.channels_to_analyze():
            stats.channels_analyzed += 1
            channel_reports, _ = self.analyze_channel(channel, stats)
            reports.extend(channel_reports)
        stats.elapsed_seconds = time.perf_counter() - start
        if self.collector:
            self.collector.count("detect.channels", stats.channels_analyzed)
            self.collector.count("detect.groups", stats.groups_checked)
        return DetectionResult(reports=dedup_reports(reports), stats=stats)

    def channels_to_analyze(self) -> List[Primitive]:
        """The per-primitive analysis units, in deterministic program order.

        Done channels are excluded: they are closed by the runtime, not the
        program, so waiting on them forever is normal behaviour.
        """
        return [c for c in self.pmap.channels() if c.site.kind != "ctxdone"]

    # -- per-channel analysis ----------------------------------------------------

    def analyze_channel(
        self,
        channel: Primitive,
        stats: DetectionStats,
        budget: Optional[AnalysisBudget] = None,
    ) -> Tuple[List[BugReport], bool]:
        """Analyze one channel; returns ``(reports, timed_out)``.

        When ``budget`` runs out mid-analysis the reports found so far are
        returned with ``timed_out=True`` — the engine records the TIMEOUT
        and moves on to the next primitive.
        """
        reports: List[BugReport] = []
        try:
            self._analyze_channel(channel, stats, reports, budget)
            return reports, False
        except BudgetExceeded:
            stats.analysis_timeouts += 1
            if self.collector:
                self.collector.count("engine.timeout")
            return reports, True

    def _analyze_channel(
        self,
        channel: Primitive,
        stats: DetectionStats,
        reports: List[BugReport],
        budget: Optional[AnalysisBudget] = None,
    ) -> None:
        collector = self.collector
        if self.disentangle:
            scope = self.scopes[channel]
            with collector.span(STAGE_DISENTANGLE):
                pset = self.pset_of(channel)
            roots = self._roots_for(channel, scope)
            scope_functions = scope.functions
        else:
            # ablation: the whole program and every primitive, from main().
            # Done channels stay excluded in both modes: only the runtime
            # can unblock them, so requiring them to proceed is meaningless.
            pset = [p for p in self.pmap if p.site.kind != "ctxdone"]
            scope_functions = set(self.program.functions)
            roots = ["main"] if "main" in self.program.functions else []
        if collector:
            collector.observe("pset.size", len(pset))
            collector.observe("scope.functions", len(scope_functions))
        for root in roots:
            enumerator = PathEnumerator(
                self.program,
                self.call_graph,
                self.alias,
                self.pmap,
                pset,
                scope_functions,
                max_loop_unroll=self.max_loop_unroll,
                prune_infeasible=self.prune_infeasible,
                collector=collector if collector else None,
                def_counts=self._def_counts,
            )
            with collector.span(STAGE_PATH_ENUM):
                combos = enumerate_combinations(enumerator, root)
            stats.combinations += len(combos)
            if collector:
                collector.count("paths.combinations", len(combos))
            for combo in combos:
                if budget is not None:
                    budget.check()
                reports.extend(
                    self._check_combination(
                        channel, combo, scope_functions, stats, budget
                    )
                )

    def _roots_for(self, channel: Primitive, scope: Scope) -> List[str]:
        if scope.lca is not None:
            return [scope.lca]
        creation = [op.function for op in channel.operations if op.kind == "create"]
        return [f for f in creation if f in self.program.functions][:1]

    def _check_combination(
        self,
        channel: Primitive,
        combo: PathCombination,
        scope_functions,
        stats: DetectionStats,
        budget: Optional[AnalysisBudget] = None,
    ) -> List[BugReport]:
        collector = self.collector
        reports: List[BugReport] = []
        with collector.span(STAGE_SUSPICIOUS):
            groups = [
                group
                for group in enumerate_groups(combo, collector if collector else None)
                if self._group_targets_channel(group, channel)
            ]
        max_nodes = self.solver_max_nodes
        for group in groups:
            if budget is not None:
                budget.check()
                max_nodes = budget.per_solve_nodes() or self.solver_max_nodes
            stats.groups_checked += 1
            maybe_fault(STAGE_ENCODE, str(channel.site))
            stats.solver_calls += 1
            maybe_fault(STAGE_SOLVE, str(channel.site))
            with collector.span(STAGE_ENCODE):
                system = encode(combo, group, collector if collector else None)
            with collector.span(STAGE_SOLVE):
                outcome = solve_detailed(
                    system, collector if collector else None, max_nodes=max_nodes
                )
            if budget is not None:
                budget.charge(outcome.nodes)
            if outcome.outcome == TIMEOUT:
                stats.solver_timeouts += 1
            if outcome.solution is None:
                continue
            stats.sat_results += 1
            reports.append(
                self._report(channel, combo, group, outcome, scope_functions)
            )
        return reports

    def _group_targets_channel(self, group: List[StopPoint], channel: Primitive) -> bool:
        """Attribute a group to the channel under analysis (avoids
        re-reporting the same mutex-only group once per channel)."""
        for stop in group:
            event = stop.event
            if isinstance(event, OpEvent) and event.prim is channel:
                return True
            if isinstance(event, SelectChoice):
                if any(case.prim is channel for case in event.pset_cases):
                    return True
        return False

    def _report(
        self,
        channel: Primitive,
        combo: PathCombination,
        group: List[StopPoint],
        outcome,
        scope_functions,
    ) -> BugReport:
        blocked: List[BlockedOp] = []
        involves_mutex = False
        for stop in group:
            event = stop.event
            if isinstance(event, OpEvent):
                if event.prim.is_mutex:
                    involves_mutex = True
                blocked.append(
                    BlockedOp(
                        kind=event.kind,
                        line=event.line,
                        function=self._function_of(combo, stop.gid),
                        prim_label=event.prim.site.label or str(event.prim.site),
                    )
                )
            elif isinstance(event, SelectChoice):
                labels = ",".join(c.prim.site.label for c in event.pset_cases)
                blocked.append(
                    BlockedOp(
                        kind="select",
                        line=event.line,
                        function=self._function_of(combo, stop.gid),
                        prim_label=labels,
                    )
                )
        category = "bmoc-mutex" if involves_mutex else "bmoc-chan"
        description = (
            f"goroutine(s) block forever on channel {channel.site.label!r} "
            f"(created at {channel.site.function}:{channel.site.line})"
        )
        return BugReport(
            category=category,
            primitive=channel,
            blocked_ops=blocked,
            description=description,
            combination=combo,
            stops=list(group),
            witness=outcome.solution,
            scope_functions=frozenset(scope_functions),
            clause_count=outcome.clauses,
            solver_nodes=outcome.nodes,
            solver_outcome=outcome.outcome,
        )

    def _function_of(self, combo: PathCombination, gid: int) -> str:
        for goroutine in combo.goroutines:
            if goroutine.gid == gid:
                return goroutine.path.function
        return "?"


def detect_bmoc(
    program,
    disentangle: bool = True,
    max_loop_unroll: int = 2,
    prune_infeasible: bool = True,
    collector=None,
) -> DetectionResult:
    """Convenience wrapper: run the BMOC detector over a program."""
    return BMOCDetector(
        program,
        disentangle=disentangle,
        max_loop_unroll=max_loop_unroll,
        prune_infeasible=prune_infeasible,
        collector=collector,
    ).detect()
