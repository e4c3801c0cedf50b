"""Differential fuzz campaigns: generate → detect → explore → triage.

Every generated program runs through the full pipeline — parse/SSA
build, static detection through the engine exactly as one-shot
``detect`` runs it, bounded schedule exploration — and the two verdicts
are reconciled by the same
:func:`repro.diffcheck.classify_oracles` core the corpus sweep uses.

Each program is one isolation unit behind the resilience firewall
(:mod:`repro.resilience`): a crash in *any* stage becomes a structured
incident on that program's triage and the campaign keeps going — one
pathological generated program cannot kill a 10k-program run. The
``fuzz-program`` fault-injection site makes that promise testable.

Triage buckets:

* ``parse-crash`` — the generator emitted something the front end
  rejects or the SSA builder crashes on: a generator or parser finding;
* ``analysis-incident`` — detection or exploration crashed (or detection
  degraded behind the firewall): a robustness finding;
* ``agree`` — the oracles agree (bug exhibited, or clean and proven);
* ``explained`` — the oracles disagree for a *documented* cause: the
  program contains a seeded FP motif, the search was truncated by a
  bound, or exploration hit the step budget;
* ``unexplained-disagreement`` — the finding class: a disagreement with
  no documented cause. Every one carries ``(campaign_seed, index)`` so
  :func:`repro.fuzz.generator.generate_program` replays it exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.detector.gcatch import run_gcatch
from repro.diffcheck import (
    AGREE_BUG,
    AGREE_CLEAN,
    Explanations,
    aggregate_verdicts,
    classify_oracles,
)
from repro.fuzz.generator import GeneratedProgram, generate_program
from repro.obs import NULL
from repro.resilience.faultinject import maybe_fault
from repro.resilience.firewall import Firewall
from repro.resilience.incidents import Incident
from repro.runtime.explorer import explore
from repro.ssa.builder import build_program

BUCKET_PARSE_CRASH = "parse-crash"
BUCKET_INCIDENT = "analysis-incident"
BUCKET_AGREE = "agree"
BUCKET_EXPLAINED = "explained"
BUCKET_UNEXPLAINED = "unexplained-disagreement"

BUCKETS = (
    BUCKET_PARSE_CRASH,
    BUCKET_INCIDENT,
    BUCKET_AGREE,
    BUCKET_EXPLAINED,
    BUCKET_UNEXPLAINED,
)

#: the documented cause attached to every step-budget divergence: a
#: bounded dynamic oracle cannot rule on a program it could not finish
_DIVERGENCE_CAUSE = "bounded-oracle: exploration hit the step budget"


@dataclass(frozen=True)
class CampaignConfig:
    """Per-program analysis budgets for one campaign."""

    max_runs: int = 128  # schedule-exploration run budget per program
    max_steps: int = 6_000  # per-run interpreter step bound
    max_total_steps: int = 120_000  # deterministic cross-run step budget

    def to_json(self) -> dict:
        return {
            "max_runs": self.max_runs,
            "max_steps": self.max_steps,
            "max_total_steps": self.max_total_steps,
        }


@dataclass
class ProgramTriage:
    """One generated program's reconciled verdict (or its crash record)."""

    index: int
    name: str
    bucket: str
    classification: str = ""  # repro.diffcheck classification, when reached
    explained: bool = True
    explanation: str = ""
    static_bug: bool = False
    static_reports: int = 0
    dynamic: str = ""  # 'leak' | 'clean' | 'divergence'
    runs: int = 0
    total_steps: int = 0
    complete: bool = False
    stopped: str = ""  # why exploration ended (repro.runtime.explorer.STOP_*)
    templates: Tuple[str, ...] = ()
    mutations: Tuple[str, ...] = ()
    error: str = ""  # crash summary for the two crash buckets
    incidents: List[Incident] = field(default_factory=list)

    # aggregate_verdicts duck-types on case_id/classification/explained,
    # so campaign triages roll up exactly like corpus verdicts
    @property
    def case_id(self) -> str:
        return self.name

    def to_dict(self) -> dict:
        payload = {
            "index": self.index,
            "name": self.name,
            "bucket": self.bucket,
            "classification": self.classification,
            "explained": self.explained,
            "explanation": self.explanation,
            "static_bug": self.static_bug,
            "static_reports": self.static_reports,
            "dynamic": self.dynamic,
            "runs": self.runs,
            "total_steps": self.total_steps,
            "complete": self.complete,
            "stopped": self.stopped,
            "templates": list(self.templates),
            "mutations": list(self.mutations),
        }
        if self.error:
            payload["error"] = self.error
        if self.incidents:
            from repro.resilience import incidents_to_json

            payload["incidents"] = incidents_to_json(self.incidents)
        return payload


@dataclass
class CampaignReport:
    """Everything one campaign established, with replayable provenance."""

    seed: int
    count: int
    config: CampaignConfig
    triages: List[ProgramTriage] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    trace: Optional[object] = None  # the campaign's repro.obs.Collector
    start: int = 0  # first program index (fleet shards offset this)

    def buckets(self) -> Dict[str, int]:
        counts = {bucket: 0 for bucket in BUCKETS}
        for triage in self.triages:
            counts[triage.bucket] += 1
        return counts

    def by_bucket(self, bucket: str) -> List[ProgramTriage]:
        return [t for t in self.triages if t.bucket == bucket]

    def unexplained(self) -> List[ProgramTriage]:
        return self.by_bucket(BUCKET_UNEXPLAINED)

    def crashes(self) -> List[ProgramTriage]:
        """Programs the campaign could not take through the pipeline."""
        return self.by_bucket(BUCKET_PARSE_CRASH) + self.by_bucket(BUCKET_INCIDENT)

    def classified(self) -> List[ProgramTriage]:
        return [t for t in self.triages if t.classification]

    @property
    def agreement_rate(self) -> float:
        rollup = aggregate_verdicts(self.classified())
        return float(rollup["agreement_rate"])

    def to_json(self) -> dict:
        from repro.obs import SCHEMA, snapshot

        rollup = aggregate_verdicts(self.classified())
        payload: dict = {
            "schema": SCHEMA,
            "kind": "fuzz-campaign",
            "seed": self.seed,
            "count": self.count,
            "start": self.start,
            "config": self.config.to_json(),
            "buckets": self.buckets(),
            "by_class": rollup["by_class"],
            "agreement_rate": rollup["agreement_rate"],
            "unexplained": [t.name for t in self.unexplained()],
            "crashes": [t.name for t in self.crashes()],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "triages": [t.to_dict() for t in self.triages],
        }
        if self.trace:
            payload["stats"] = snapshot(self.trace)
        return payload

    def render(self) -> str:
        from repro.report.differential import render_campaign

        return render_campaign(self)


def triage_program(
    program: GeneratedProgram,
    config: CampaignConfig = CampaignConfig(),
    collector=None,
) -> ProgramTriage:
    """Run one generated program through the full differential pipeline.

    The program is one firewall unit: a transient crash anywhere in it is
    retried once, as detection's shards are.
    """
    firewall = Firewall(collector=collector)
    triage = ProgramTriage(
        index=program.index,
        name=program.name,
        bucket=BUCKET_INCIDENT,
        templates=program.templates(),
        mutations=program.mutation_tags(),
    )

    def _build():
        maybe_fault("fuzz-program", f"{program.name}:build")
        return build_program(program.source, program.name + ".go", collector=collector)

    guarded = firewall.call(_build, site="fuzz-program", label=f"{program.name}:build")
    if not guarded.ok:
        triage.bucket = BUCKET_PARSE_CRASH
        triage.error = guarded.incident.render()
        triage.incidents.append(guarded.incident)
        return triage
    ir_program = guarded.value

    def _analyze():
        maybe_fault("fuzz-program", program.name)
        static = run_gcatch(ir_program, collector=collector)
        exploration = explore(
            ir_program,
            entry=program.entry,
            max_runs=config.max_runs,
            max_steps=config.max_steps,
            max_total_steps=config.max_total_steps,
            collector=collector,
        )
        return static, exploration

    guarded = firewall.call(_analyze, site="fuzz-program", label=program.name)
    if not guarded.ok:
        triage.bucket = BUCKET_INCIDENT
        triage.error = guarded.incident.render()
        triage.incidents.append(guarded.incident)
        return triage
    static, exploration = guarded.value
    if static.incidents:
        # detection survived behind its own firewall but lost units; a
        # degraded static verdict cannot anchor a differential claim
        triage.bucket = BUCKET_INCIDENT
        triage.error = "; ".join(i.render() for i in static.incidents)
        triage.incidents.extend(static.incidents)
        return triage

    static_bug = bool(static.bmoc.reports)
    dynamic, classification, explained, explanation = classify_oracles(
        static_bug, exploration, _explanations(program)
    )
    triage.classification = classification
    triage.explained = explained
    triage.explanation = explanation
    triage.static_bug = static_bug
    triage.static_reports = len(static.bmoc.reports)
    triage.dynamic = dynamic
    triage.runs = exploration.runs
    triage.total_steps = exploration.total_steps
    triage.complete = exploration.complete
    triage.stopped = exploration.stopped
    if classification in (AGREE_BUG, AGREE_CLEAN):
        triage.bucket = BUCKET_AGREE
    elif explained:
        triage.bucket = BUCKET_EXPLAINED
    else:
        triage.bucket = BUCKET_UNEXPLAINED
    return triage


def _explanations(program: GeneratedProgram) -> Explanations:
    """Documented causes this recipe carries into classification.

    A seeded FP motif (``fp_cause``) documents why the static oracle may
    over-report; the step-budget cause documents why the bounded dynamic
    oracle may fail to rule. Nothing documents a dynamic-only leak — all
    motifs are within BMOC's model, so those are always findings.
    """
    static_only = tuple(
        f"{inst.template}: seeded FP ({inst.fp_cause})"
        for inst in program.instances()
        if inst.fp_cause
    )
    return Explanations(static_only=static_only, divergence=(_DIVERGENCE_CAUSE,))


def run_campaign(
    seed: int,
    count: int,
    config: CampaignConfig = CampaignConfig(),
    collector=None,
    start: int = 0,
) -> CampaignReport:
    """Generate and triage ``count`` programs from one campaign seed.

    ``start`` offsets the program index range to ``[start, start+count)``
    without changing any program's content: generation is pure in
    ``(seed, index)``, so a campaign split into shards across a fleet
    produces the exact triages of the equivalent single run.
    """
    obs = collector or NULL
    report = CampaignReport(seed=seed, count=count, config=config, start=start)
    started = time.perf_counter()
    with obs.span("fuzz-campaign"):
        for index in range(start, start + count):
            program = generate_program(seed, index)
            program_started = time.perf_counter()
            triage = triage_program(program, config=config, collector=collector)
            report.triages.append(triage)
            if obs:
                obs.count("fuzz.programs")
                obs.count(f"fuzz.bucket.{triage.bucket}")
                # per-program wall distribution: the campaign's latency
                # telemetry (p50/p95/p99 in the --json stats block)
                obs.observe(
                    "fuzz.program.seconds",
                    time.perf_counter() - program_started,
                )
    report.elapsed_seconds = time.perf_counter() - started
    if collector:
        report.trace = collector
    return report
