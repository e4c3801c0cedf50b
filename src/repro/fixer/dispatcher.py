"""GFix: dispatcher plus the three patchers (Figure 2, right half).

The dispatcher classifies each input BMOC bug with static analysis and
attempts Strategy I, then II, then III — the order that yields the simplest
(most readable) patch, matching the paper's configuration (§5.1). The
``fix-preprocess`` and ``fix-transform`` spans time its two phases:
preprocessing (IR + call graph + alias analysis, ~98% of GFix's time in
the paper) and transformation.

Each strategy attempt runs behind the :mod:`repro.resilience` firewall
(injection site ``fix-apply``): a crashing patcher becomes an
:class:`~repro.resilience.incidents.Incident` on the :class:`FixResult`
and the dispatcher falls through to the next strategy — one bad strategy
never aborts a batch fix run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.detector.reporting import BugReport
from repro.fixer.patch import Patch
from repro.obs import NULL, Collector
from repro.resilience.faultinject import maybe_fault
from repro.resilience.firewall import Firewall
from repro.resilience.incidents import Incident
from repro.fixer.safety import REASON_NO_PATTERN, BugShape, analyze_shape
from repro.fixer.strategy_buffer import try_strategy_buffer
from repro.fixer.strategy_defer import try_strategy_defer
from repro.fixer.strategy_stop import try_strategy_stop
from repro.ssa import ir


@dataclass
class FixResult:
    """Outcome of GFix on one bug."""

    report: BugReport
    patch: Optional[Patch] = None
    reason: Optional[str] = None  # why no patch was generated
    # strategies that crashed (firewalled) while fixing this bug
    incidents: List[Incident] = field(default_factory=list)

    @property
    def fixed(self) -> bool:
        return self.patch is not None

    @property
    def strategy(self) -> Optional[str]:
        return self.patch.strategy if self.patch else None


@dataclass
class GFixSummary:
    results: List[FixResult] = field(default_factory=list)
    # the run's observability collector, when fixing ran with one
    trace: Optional[Collector] = None

    def incidents(self) -> List[Incident]:
        """Every strategy crash across the batch, in bug order."""
        return [incident for r in self.results for incident in r.incidents]

    def fixed(self) -> List[FixResult]:
        return [r for r in self.results if r.fixed]

    def unfixed(self) -> List[FixResult]:
        return [r for r in self.results if not r.fixed]

    def by_strategy(self, strategy: str) -> List[FixResult]:
        return [r for r in self.results if r.strategy == strategy]

    def average_changed_lines(self) -> float:
        fixed = self.fixed()
        if not fixed:
            return 0.0
        return sum(r.patch.changed_lines() for r in fixed) / len(fixed)


class GFix:
    """Automated patch synthesis for BMOC bugs detected by GCatch."""

    def __init__(self, program: ir.Program, source: str, collector: Optional[Collector] = None):
        self.program = program
        self.source = source
        self.collector = collector or NULL
        self.firewall = Firewall(collector=self.collector)
        # preprocessing mirrors the paper's: SSA conversion happened in the
        # builder; here the call graph and alias analysis are (re)computed
        with self.collector.span("fix-preprocess"):
            self.call_graph = build_call_graph(program)
            self.alias = run_alias_analysis(program, self.call_graph)

    def fix(self, report: BugReport) -> FixResult:
        """Classify the bug and attempt Strategies I → II → III."""
        incidents_before = len(self.firewall.incidents)
        result = FixResult(report=report)
        with self.collector.span("fix-transform"):
            if report.category != "bmoc-chan" or report.primitive is None:
                result.reason = "GFix only fixes channel-only BMOC bugs"
                return result
            shape = analyze_shape(self.program, report)
            if shape.reject_reason is not None:
                result.reason = shape.reject_reason
                if self.collector:
                    self.collector.count("fix.rejected")
                return result
            patch = self._attempt(shape)
        if patch is not None:
            result.patch = patch
        else:
            result.reason = shape.reject_reason or REASON_NO_PATTERN
            if self.collector:
                self.collector.count("fix.unfixed")
        result.incidents = list(self.firewall.incidents[incidents_before:])
        return result

    def fix_all(self, reports: List[BugReport]) -> GFixSummary:
        summary = GFixSummary(results=[self.fix(report) for report in reports])
        if self.collector:
            summary.trace = self.collector
        return summary

    # strategy order is the paper's: I (buffer) → II (defer) → III (stop)
    _STRATEGIES = (
        ("buffer", lambda self, shape: try_strategy_buffer(self.program, self.source, shape)),
        ("defer", lambda self, shape: try_strategy_defer(self.program, self.source, shape)),
        (
            "stop",
            lambda self, shape: try_strategy_stop(
                self.program, self.source, shape, alias=self.alias
            ),
        ),
    )

    def _attempt(self, shape: BugShape) -> Optional[Patch]:
        collector = self.collector
        label_suffix = shape.channel.site.label or ""
        for name, attempt in self._STRATEGIES:
            if collector:
                collector.count(f"fix.attempt.{name}")
            # a crashing strategy is an incident, not an abort: fall
            # through to the next strategy exactly as on a clean None
            guarded = self.firewall.call(
                lambda name=name, attempt=attempt: (
                    maybe_fault("fix-apply", f"{name}:{label_suffix}"),
                    attempt(self, shape),
                )[1],
                site="fix-apply",
                label=f"{name}:{label_suffix}",
            )
            patch = guarded.value if guarded.ok else None
            if patch is not None:
                if collector:
                    collector.count(f"fix.fixed.{name}")
                return patch
        return None


def fix_bugs(
    program: ir.Program, source: str, reports: List[BugReport], collector=None
) -> GFixSummary:
    """Convenience wrapper: run GFix on a batch of detected bugs."""
    return GFix(program, source, collector=collector).fix_all(reports)
