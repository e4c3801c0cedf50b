"""Workload ``table1-corpus``: GCatch + GFix over the paper's 21-app corpus.

One verdict is one ``repro.report.experiments.evaluate_app`` call on a
freshly built copy of an app: parse → SSA → GCatch (BMOC + the five
traditional checkers) → GFix on the real BMOC_C bugs. A round is one pass
over all 21 apps, in an order the seed shuffles per pass; a run makes
whole passes until its verdicts have taken ``--seconds``. Every verdict
must reproduce the app's Table 1 row.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List

from repro.corpus.apps import CorpusApp, build_corpus
from repro.corpus.specs import AppSpec
from repro.fixer.dispatcher import GFix
from repro.report.experiments import AppEvaluation, evaluate_app

from common import Tracer, keep_measuring, ratio
from hostspeed import HostSpeed
from layers import TracedRun, report_counts, traced_build, traced_gcatch

TRADITIONAL = (
    ("forget-unlock", "forget_unlock"),
    ("double-lock", "double_lock"),
    ("conflict-lock", "conflict_lock"),
    ("struct-race", "struct_field"),
    ("fatal-goroutine", "fatal"),
)


@dataclasses.dataclass
class State:
    apps: tuple
    rng: random.Random
    passes: int = 0

    def inputs(self) -> dict:
        return {
            "apps": len(self.apps),
            "loc": sum(app.loc() for app in self.apps),
            "passes": self.passes,
        }

    def next_pass(self) -> List[tuple]:
        """``(verdict id, app)`` for one more pass, in a seed-shuffled order."""
        self.passes += 1
        order = self.rng.sample(self.apps, len(self.apps))
        return [(f"p{self.passes}:{app.name}", app) for app in order]


def setup(seed: int) -> State:
    return State(apps=build_corpus(), rng=random.Random(f"table1-corpus:{seed}"))


def close(state: State) -> None:
    pass


def expected_row(spec: AppSpec) -> dict:
    row = {
        "bmoc-chan": (spec.bmoc_c.real, spec.bmoc_c.fp),
        "bmoc-mutex": (spec.bmoc_m.real, spec.bmoc_m.fp),
        "fixes": (spec.fix_s1, spec.fix_s2, spec.fix_s3),
    }
    for category, attr in TRADITIONAL:
        cell = getattr(spec, attr)
        row[category] = (cell.real, cell.fp)
    return row


def observed_row(evaluation: AppEvaluation) -> dict:
    row = {c: evaluation.bmoc_counts(c) for c in ("bmoc-chan", "bmoc-mutex")}
    for category, _ in TRADITIONAL:
        row[category] = evaluation.traditional_verdicts.get(category, (0, 0))
    fixes = evaluation.fix_counts()
    row["fixes"] = (fixes["buffer"], fixes["defer"], fixes["stop"])
    return row


def incidents_of(evaluation: AppEvaluation) -> int:
    return len(evaluation.gcatch.incidents) + sum(
        len(fix.incidents) for fix in evaluation.fixes
    )


def check(app: CorpusApp, evaluation: AppEvaluation) -> str:
    """Empty when the verdict reproduces the app's Table 1 row."""
    if incidents_of(evaluation):
        return f"{app.name}: {incidents_of(evaluation)} incident(s)"
    got, want = observed_row(evaluation), expected_row(app.spec)
    if got != want:
        diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
        return f"{app.name}: (observed, Table 1) differ: {diff}"
    return ""


def fresh(app: CorpusApp) -> CorpusApp:
    """A copy whose program is not yet built: ``CorpusApp.program()``
    memoizes, and every verdict must pay for parse and SSA."""
    return dataclasses.replace(app, _program=None)


def run(state: State, seconds: float, speed: HostSpeed) -> dict:
    starts: List[float] = []
    latencies: List[float] = []
    problems: List[str] = []
    while keep_measuring(latencies, seconds):
        for _, app in state.next_pass():
            started, elapsed = timed_verdict(app, problems)
            starts.append(started)
            latencies.append(elapsed)
            speed.after(elapsed)
    return {
        "starts": starts, "latencies": latencies, "problems": problems,
        "failed": len(problems),
    }


def timed_verdict(app: CorpusApp, problems: List[str]) -> tuple:
    """Time one ``evaluate_app`` verdict, as ``(start, seconds)``; check
    it outside the timer."""
    candidate = fresh(app)
    started = time.perf_counter()
    evaluation = evaluate_app(candidate)
    elapsed = time.perf_counter() - started
    problem = check(app, evaluation)
    if problem:
        problems.append(problem)
    return started, elapsed


def traced_evaluate(tracer: Tracer, verdict: str, app: CorpusApp) -> dict:
    """``evaluate_app`` as separately traced layer calls, in its order."""
    program = traced_build(tracer, verdict, app.source, f"{app.name}.go")
    found = traced_gcatch(tracer, verdict, program)
    by_channel: Dict[int, list] = {}
    for report in found.bmoc:
        by_channel.setdefault(id(report.primitive), []).append(report)
    with tracer.span("fixer.preprocess", verdict):
        gfix = GFix(program, app.source)
    fixes = []
    for reports in by_channel.values():
        instance = app.instance_for_function(reports[0].primitive.site.function)
        mutex = any(r.category == "bmoc-mutex" for r in reports)
        if mutex or instance is None or not instance.real:
            continue
        for report in reports:
            with tracer.span("fixer.transform", verdict):
                result = gfix.fix(report)
            if result.fixed:
                break
        fixes.append(result)
    return {
        "reports": report_counts(found.bmoc, found.traditional),
        "fixes": [f.strategy for f in fixes],
        "found": found,
        "program": program,
    }


def run_traced(state: State, seconds: float) -> dict:
    run = TracedRun()
    while run.elapsed() < seconds:
        for verdict, app in state.next_pass():
            evaluation, composed = run.both(
                lambda: evaluate_app(fresh(app)),
                lambda tracer: traced_evaluate(tracer, verdict, fresh(app)),
            )
            problem = check(app, evaluation)
            untraced = {
                "reports": report_counts(
                    evaluation.gcatch.bmoc.reports, evaluation.gcatch.traditional),
                "fixes": [f.strategy for f in evaluation.fixes],
            }
            if not problem and untraced != {k: composed[k] for k in untraced}:
                problem = f"{verdict}: traced calls disagree with evaluate_app"
            if problem:
                run.problems.append(problem)
            run.count_gcatch(composed["found"], composed["program"], app.loc())
            run.effort["fixes"] += len(composed["fixes"])
            run.effort["fixed"] += sum(1 for s in composed["fixes"] if s is not None)
            run.effort["incidents"] += incidents_of(evaluation)
    layers = run.layers(state.passes)
    layers["fixer.fixed_share"] = (
        ratio(run.effort["fixed"], run.effort["fixes"]), run.effort["fixes"])
    return run.result(layers)
