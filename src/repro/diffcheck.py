"""Static↔dynamic differential testing of the detector.

GCatch's BMOC detector (the static oracle) and the systematic schedule
explorer (the dynamic oracle) both claim to know whether a program can
leak a goroutine. Neither is trusted alone: the static analysis has
documented soundness holes (the corpus ``Miss*`` cases), and the dynamic
search is bounded. Running both over every program of the 49-bug corpus
and *diffing their verdicts* turns each one into a test of the other:

* **agreement** — both say "bug" (a leaking schedule was exhibited for a
  static report) or both say "clean" (no report, and the exhaustive
  search proved leak-freedom);
* **static-only** — GCatch reports a bug but no schedule within the bound
  leaks: a false-positive candidate for the detector (or an under-explored
  program, when the search was truncated);
* **dynamic-only** — the explorer exhibits a leaking schedule GCatch
  missed: a false-negative candidate. For corpus ``Miss*`` cases these are
  *expected* and each carries the corpus' documented ``miss_reason``;
  a dynamic-only leak with no such explanation is a detector regression;
* **divergence** — the program never terminates within the step budget
  (e.g. a livelock guarded by a dynamic value), so the dynamic oracle
  cannot issue a verdict either way.

``run_diffcheck`` sweeps the corpus and classifies every case;
:class:`DifferentialReport.unexplained` is the regression signal the
benchmark suite asserts empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.bugset import BugCase, build_bug_set
from repro.detector.gcatch import run_gcatch
from repro.runtime.explorer import Exploration, explore
from repro.ssa.builder import build_program

AGREE_BUG = "agree-bug"
AGREE_CLEAN = "agree-clean"
STATIC_ONLY = "static-only"
DYNAMIC_ONLY = "dynamic-only"
DIVERGENCE = "divergence"

#: every classification a reconciled verdict can carry, in report order
CLASSIFICATIONS = (AGREE_BUG, AGREE_CLEAN, STATIC_ONLY, DYNAMIC_ONLY, DIVERGENCE)


@dataclass(frozen=True)
class Explanations:
    """Documented causes that can explain an oracle disagreement.

    The three disagreement classes have *different* legitimate causes, so
    an explanation only discharges the class it is declared for: a corpus
    ``miss_reason`` (a known static false negative) explains a
    ``dynamic-only`` leak but never a ``static-only`` report, while a
    seeded FP template (a known static false positive) explains the
    reverse. Anything not covered stays an unexplained finding.
    """

    dynamic_only: Tuple[str, ...] = ()
    static_only: Tuple[str, ...] = ()
    divergence: Tuple[str, ...] = ()

    @staticmethod
    def for_case(case: BugCase) -> "Explanations":
        """A corpus case's miss_reason explains missed leaks/divergence."""
        miss = (case.miss_reason,) if case.miss_reason else ()
        return Explanations(dynamic_only=miss, divergence=miss)


def dynamic_verdict(exploration: Exploration) -> str:
    """Collapse an exploration into the dynamic oracle's verdict."""
    if exploration.any_leak:
        return "leak"
    if exploration.step_limited_runs:
        return "divergence"
    return "clean"


def classify_oracles(
    static_bug: bool,
    exploration: Exploration,
    explanations: Explanations = Explanations(),
) -> Tuple[str, str, bool, str]:
    """Reconcile the two oracles' verdicts on one program.

    Returns ``(dynamic, classification, explained, explanation)`` — the
    shared core of :func:`diff_case` (corpus sweep) and the fuzz-campaign
    triage (:mod:`repro.fuzz.campaign`).
    """
    dynamic = dynamic_verdict(exploration)
    if dynamic == "leak":
        if static_bug:
            return dynamic, AGREE_BUG, True, ""
        # a leak the static analysis missed: fine iff a documented reason
        # places this shape outside BMOC's model
        cause = "; ".join(explanations.dynamic_only)
        return dynamic, DYNAMIC_ONLY, bool(cause), cause
    if dynamic == "divergence":
        cause = "; ".join(explanations.divergence)
        return dynamic, DIVERGENCE, bool(cause), cause
    # dynamically clean
    if static_bug:
        if not exploration.complete:
            # bounded search proves nothing; flag it but name the bound
            return dynamic, STATIC_ONLY, True, "search truncated by bound"
        cause = "; ".join(explanations.static_only)
        if cause:
            return dynamic, STATIC_ONLY, True, cause
        return dynamic, STATIC_ONLY, False, "exhaustive search found no leak"
    return dynamic, AGREE_CLEAN, True, ""


def aggregate_verdicts(verdicts: Sequence["CaseVerdict"]) -> Dict[str, object]:
    """Campaign/corpus-level rollup of a batch of reconciled verdicts."""
    by_class = {c: 0 for c in CLASSIFICATIONS}
    unexplained = []
    for v in verdicts:
        by_class[v.classification] = by_class.get(v.classification, 0) + 1
        if v.classification in (STATIC_ONLY, DYNAMIC_ONLY, DIVERGENCE) and not v.explained:
            unexplained.append(v.case_id)
    agreed = by_class[AGREE_BUG] + by_class[AGREE_CLEAN]
    return {
        "total": len(verdicts),
        "by_class": by_class,
        "agreement_rate": (agreed / len(verdicts)) if verdicts else 1.0,
        "unexplained": unexplained,
    }


@dataclass
class CaseVerdict:
    """Both oracles' verdicts on one corpus program, reconciled."""

    case_id: str
    static_bug: bool
    static_reports: int
    dynamic: str  # 'leak' | 'clean' | 'divergence'
    classification: str
    explained: bool
    explanation: str = ""
    runs: int = 0
    complete: bool = False
    distinct_outcomes: int = 0
    leak_schedules: int = 0

    def row(self) -> List[str]:
        return [
            self.case_id,
            "bug" if self.static_bug else "clean",
            self.dynamic,
            f"{self.runs}{'' if self.complete else '+'}",
            str(self.distinct_outcomes),
            self.classification,
            self.explanation or ("-" if self.explained else "UNEXPLAINED"),
        ]

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "static_bug": self.static_bug,
            "static_reports": self.static_reports,
            "dynamic": self.dynamic,
            "classification": self.classification,
            "explained": self.explained,
            "explanation": self.explanation,
            "runs": self.runs,
            "complete": self.complete,
            "distinct_outcomes": self.distinct_outcomes,
            "leak_schedules": self.leak_schedules,
        }


@dataclass
class DifferentialReport:
    """Corpus-wide agreement between the static and dynamic oracles."""

    verdicts: List[CaseVerdict] = field(default_factory=list)
    max_runs: int = 0
    max_steps: int = 0
    trace: Optional[object] = None  # the sweep's repro.obs.Collector, if any

    def by_class(self, classification: str) -> List[CaseVerdict]:
        return [v for v in self.verdicts if v.classification == classification]

    def unexplained(self) -> List[CaseVerdict]:
        """Disagreements with no documented cause — the regression signal."""
        return [
            v
            for v in self.verdicts
            if v.classification in (STATIC_ONLY, DYNAMIC_ONLY, DIVERGENCE) and not v.explained
        ]

    @property
    def agreement_rate(self) -> float:
        if not self.verdicts:
            return 1.0
        agreed = len(self.by_class(AGREE_BUG)) + len(self.by_class(AGREE_CLEAN))
        return agreed / len(self.verdicts)

    def render(self) -> str:
        from repro.report.differential import render_differential

        return render_differential(self)

    def to_json(self) -> dict:
        """Machine-readable report (schema shared with ``repro.obs.stats``)."""
        from repro.obs import SCHEMA, snapshot

        payload: dict = {
            "schema": SCHEMA,
            "kind": "diffcheck",
            "max_runs": self.max_runs,
            "max_steps": self.max_steps,
            "agreement_rate": self.agreement_rate,
            "by_class": aggregate_verdicts(self.verdicts)["by_class"],
            "unexplained": [v.case_id for v in self.unexplained()],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        if self.trace:
            payload["stats"] = snapshot(self.trace)
        return payload


def diff_case(
    case: BugCase,
    max_runs: int = 512,
    max_steps: int = 20_000,
    collector=None,
) -> CaseVerdict:
    """Run both oracles on one corpus case and reconcile their verdicts."""
    program = build_program(case.source, case.case_id + ".go", collector=collector)
    static = run_gcatch(program, collector=collector)
    static_bug = bool(static.bmoc.reports)
    # the verdict reports leak_schedules and distinct_outcomes: full search
    exploration = explore(
        program,
        entry=case.driver or "main",
        max_runs=max_runs,
        max_steps=max_steps,
        collector=collector,
        every_outcome=True,
    )
    return _classify(case, static_bug, len(static.bmoc.reports), exploration)


def _classify(
    case: BugCase,
    static_bug: bool,
    static_reports: int,
    exploration: Exploration,
) -> CaseVerdict:
    dynamic, classification, explained, explanation = classify_oracles(
        static_bug, exploration, Explanations.for_case(case)
    )
    return CaseVerdict(
        case_id=case.case_id,
        static_bug=static_bug,
        static_reports=static_reports,
        dynamic=dynamic,
        classification=classification,
        explained=explained,
        explanation=explanation,
        runs=exploration.runs,
        complete=exploration.complete,
        distinct_outcomes=len(exploration.outcomes),
        leak_schedules=len(exploration.leaking()),
    )


def run_diffcheck(
    cases: Optional[Sequence[BugCase]] = None,
    max_runs: int = 512,
    max_steps: int = 20_000,
    collector=None,
) -> DifferentialReport:
    """Diff the two oracles over the whole corpus (or a subset)."""
    report = DifferentialReport(max_runs=max_runs, max_steps=max_steps)
    for case in cases if cases is not None else build_bug_set():
        report.verdicts.append(
            diff_case(case, max_runs=max_runs, max_steps=max_steps, collector=collector)
        )
    if collector:
        report.trace = collector
    return report
