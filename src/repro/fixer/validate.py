"""Automated patch validation — the paper's other §6 future-work item.

The paper validates GFix's patches manually ("we manually validate the
patches' correctness... We leave the design of an automated patch testing
framework for Go to future work"). This module automates that process on
the MiniGo substrate with three checks per patch:

1. **bug elimination (static)** — re-running GCatch on the patched program
   produces no report on the patched channel;
2. **bug elimination (dynamic)** — no schedule of the patched program
   leaks a goroutine or deadlocks. This check is *exhaustive* by default:
   the systematic explorer enumerates every interleaving (modulo
   commutation of independent steps), so a pass is a proof within the
   program's semantics, not a sampling claim. When the schedule space
   exceeds the exploration bound (e.g. unbounded loops), validation falls
   back to the paper's seeded random sampling and logs the downgrade;
3. **semantics preservation** — every observable behaviour (println trace,
   panic status, test verdict) the *original* program exhibits on cleanly
   completing schedules is still achievable by the patched program; new
   patched behaviours are allowed (they are the previously-blocking
   executions, now completing or stopping).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional

from repro.detector.bmoc import detect_bmoc
from repro.fixer.dispatcher import FixResult
from repro.resilience.faultinject import maybe_fault
from repro.resilience.firewall import Firewall
from repro.resilience.incidents import Incident
from repro.runtime.explorer import explore
from repro.runtime.scheduler import run_program
from repro.ssa.builder import build_program

logger = logging.getLogger(__name__)


@dataclass
class ValidationDowngrade:
    """Structured record of an exhaustive→sampled validation downgrade."""

    which: str  # "original" or "patched": whose schedule space blew the bound
    max_runs: int  # the exploration bound that was exceeded
    seeds: int  # how many seeded schedules the fallback sampled

    @property
    def reason(self) -> str:
        return (
            f"schedule space of the {self.which} program exceeds the "
            f"exploration bound ({self.max_runs} runs); falling back to "
            f"{self.seeds} seeded schedules"
        )


@dataclass
class PatchValidation:
    """Outcome of validating one patch."""

    entry: str
    static_clean: bool = False
    schedules_run: int = 0
    patched_leaks: int = 0
    patched_panics: int = 0
    semantics_mismatches: List[int] = field(default_factory=list)  # seeds / outcome ids
    comparable_schedules: int = 0
    exhaustive: bool = False  # dynamic verdicts cover the whole schedule space
    fallback: bool = False  # bound exceeded: reverted to seeded sampling
    downgrade: Optional[ValidationDowngrade] = None  # why, when fallback is True
    incident: Optional[Incident] = None  # validation itself crashed (firewalled)

    @property
    def dynamic_clean(self) -> bool:
        return self.patched_leaks == 0 and self.patched_panics == 0

    @property
    def semantics_preserved(self) -> bool:
        return not self.semantics_mismatches

    @property
    def correct(self) -> bool:
        return (
            self.incident is None
            and self.static_clean
            and self.dynamic_clean
            and self.semantics_preserved
        )

    def render(self) -> str:
        if self.incident is not None:
            return (
                f"ERROR (entry {self.entry}): validation crashed — "
                f"{self.incident.exception}: {self.incident.message}"
            )
        verdict = "CORRECT" if self.correct else "REJECTED"
        mode = "exhaustive" if self.exhaustive else "sampled"
        parts = [
            f"{verdict} (entry {self.entry}, {self.schedules_run} schedules, {mode})",
            f"  static: {'clean' if self.static_clean else 'still reported'}",
            f"  dynamic: {self.patched_leaks} leaks, {self.patched_panics} panics",
            f"  semantics: {self.comparable_schedules} comparable schedules, "
            f"{len(self.semantics_mismatches)} mismatches",
        ]
        if self.downgrade is not None:
            parts.append(f"  downgrade: {self.downgrade.reason}")
        return "\n".join(parts)


def validate_patch(
    original_source: str,
    fix: FixResult,
    entry: str,
    seeds: int = 25,
    max_steps: int = 50_000,
    max_runs: int = 512,
    collector=None,
) -> PatchValidation:
    """Run the three-check validation for one GFix patch.

    Dynamic checks use exhaustive schedule exploration bounded by
    ``max_runs``; ``seeds`` only matters when that bound is exceeded and
    validation degrades to seeded sampling. ``collector`` (a
    :class:`repro.obs.Collector`) receives a ``validate`` span plus the
    sample counters.
    """
    from repro.obs import NULL

    obs = collector or NULL
    if fix.patch is None:
        raise ValueError("fix produced no patch to validate")

    validation = PatchValidation(entry=entry)
    firewall = Firewall(collector=obs)
    with obs.span("validate"):
        guarded = firewall.call(
            lambda: _validate_body(
                validation, original_source, fix, entry, seeds, max_steps, max_runs, collector
            ),
            site="validate",
            label=entry,
        )
    if not guarded.ok:
        validation.incident = guarded.incident
    if obs:
        obs.count("validate.patches")
        obs.count("validate.samples", validation.schedules_run)
        obs.count("validate.fallback" if validation.fallback else "validate.exhaustive")
        obs.count("validate.mismatches", len(validation.semantics_mismatches))
        if validation.downgrade is not None:
            obs.count("validate.downgrade")
    return validation


def _validate_body(
    validation: PatchValidation,
    original_source: str,
    fix: FixResult,
    entry: str,
    seeds: int,
    max_steps: int,
    max_runs: int,
    collector,
) -> None:
    """The three checks; runs behind the ``validate`` firewall site."""
    maybe_fault("validate", entry)
    patched_source = fix.patch.apply()
    original = build_program(original_source, "original.go")
    patched = build_program(patched_source, "patched.go")

    validation.static_clean = _static_clean(patched, fix)

    # patched_leaks and the behaviour-set comparison need every outcome
    patched_exp = explore(
        patched, entry=entry, max_runs=max_runs, max_steps=max_steps,
        collector=collector, every_outcome=True,
    )
    original_exp = explore(
        original, entry=entry, max_runs=max_runs, max_steps=max_steps,
        collector=collector, every_outcome=True,
    )
    if patched_exp.complete and original_exp.complete:
        _check_exhaustive(validation, original_exp, patched_exp)
    else:
        which = "patched" if not patched_exp.complete else "original"
        validation.downgrade = ValidationDowngrade(which=which, max_runs=max_runs, seeds=seeds)
        logger.warning("%s (entry %r)", validation.downgrade.reason, entry)
        validation.fallback = True
        _check_sampled(validation, original, patched, entry, seeds, max_steps)


def _check_exhaustive(validation, original_exp, patched_exp) -> None:
    """Dynamic + semantics checks over fully enumerated outcome sets."""
    validation.exhaustive = True
    validation.schedules_run = patched_exp.runs
    validation.patched_leaks = len(patched_exp.leaking())
    validation.patched_panics = sum(1 for o in patched_exp.outcomes if o.panicked)
    patched_signatures = {_signature(o) for o in patched_exp.outcomes}
    for index, outcome in enumerate(original_exp.outcomes):
        if outcome.blocked_forever or outcome.panicked:
            continue  # the bug fired (or crashed): nothing to preserve
        validation.comparable_schedules += 1
        if _signature(outcome) not in patched_signatures:
            validation.semantics_mismatches.append(index)


def _check_sampled(validation, original, patched, entry, seeds, max_steps) -> None:
    """The paper's random-sampling validation, kept as the fallback.

    Both programs are schedule-nondeterministic and the patch shifts RNG
    draws, so per-seed comparison is meaningless. Instead: every clean
    behaviour the ORIGINAL exhibits must still be achievable after the
    patch. (New patched behaviours are expected — they are the previously
    blocking executions, now completing.)
    """
    validation.schedules_run = seeds
    original_clean = set()
    patched_signatures = set()
    for seed in range(seeds):
        patched_outcome = run_program(patched, entry=entry, seed=seed, max_steps=max_steps)
        if patched_outcome.blocked_forever:
            validation.patched_leaks += 1
        if patched_outcome.panicked:
            validation.patched_panics += 1
        patched_signatures.add(_signature(patched_outcome))
        original_outcome = run_program(original, entry=entry, seed=seed, max_steps=max_steps)
        if original_outcome.blocked_forever or original_outcome.panicked:
            continue
        validation.comparable_schedules += 1
        original_clean.add((seed, _signature(original_outcome)))
    for seed, signature in sorted(original_clean):
        if signature not in patched_signatures:
            validation.semantics_mismatches.append(seed)


def _signature(outcome) -> tuple:
    return (tuple(sorted(outcome.output)), outcome.panicked, outcome.test_failed)


def _static_clean(patched_program, fix: FixResult) -> bool:
    """No report on the patched channel in the patched program."""
    label = fix.report.primitive.site.label if fix.report.primitive else None
    result = detect_bmoc(patched_program)
    if label is None:
        return not result.reports
    return not any(
        r.primitive is not None and r.primitive.site.label == label for r in result.reports
    )
