"""Workload ``fuzz-campaign``: differential triage of generated programs.

One verdict is one ``repro.fuzz.campaign.triage_program`` call with the
default ``CampaignConfig``: build → ``run_gcatch`` → bounded ``explore`` →
oracle reconciliation. The programs are the first ``POOL`` of the seed-0
campaign (``generate_program(0, i)``); a run makes whole passes over
them, each in an order the seed shuffles, until its verdicts have taken
``--seconds``. A round is one program. A triage that crashes, hits an
incident or disagrees without a documented cause fails its verdict.

The benchmark seed does not pick the campaign seed: per-program cost is
bimodal (a cluster at 2-11 ms, another at 64-256 ms) with the median in
the trough between, so on seeds 1-5 a seed-chosen set of 333 programs
moved ``verdict_p50_ms`` from 13.8 to 27.8 ms on the same code.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import time
from typing import List

from repro.diffcheck import AGREE_BUG, AGREE_CLEAN, classify_oracles
from repro.fuzz.campaign import (
    BUCKET_AGREE,
    BUCKET_EXPLAINED,
    BUCKET_INCIDENT,
    BUCKET_PARSE_CRASH,
    BUCKET_UNEXPLAINED,
    CampaignConfig,
    ProgramTriage,
    _explanations,
    triage_program,
)
from repro.fuzz.generator import GeneratedProgram, generate_program
from repro.runtime.explorer import explore

from common import Tracer, keep_measuring, ratio
from hostspeed import HostSpeed
from layers import TracedRun, traced_build, traced_gcatch

CAMPAIGN_SEED = 0
#: programs per pass: about 7 s of triage on a 2-vCPU host
POOL = 100

FAILING_BUCKETS = (BUCKET_PARSE_CRASH, BUCKET_INCIDENT, BUCKET_UNEXPLAINED)


@dataclasses.dataclass
class State:
    pool: List[GeneratedProgram]
    rng: random.Random
    config: CampaignConfig
    passes: int = 0

    def inputs(self) -> dict:
        return {
            "campaign_seed": CAMPAIGN_SEED,
            "programs": len(self.pool),
            "loc": sum(p.source.count("\n") for p in self.pool),
            "passes": self.passes,
        }

    def next_pass(self) -> List[GeneratedProgram]:
        self.passes += 1
        return self.rng.sample(self.pool, len(self.pool))


def setup(seed: int) -> State:
    return State(
        pool=[generate_program(CAMPAIGN_SEED, i) for i in range(POOL)],
        rng=random.Random(f"fuzz-campaign:{seed}"),
        config=CampaignConfig(),
    )


def close(state: State) -> None:
    pass


def check(triage: ProgramTriage) -> str:
    """Empty unless the triage is a crash, an incident or unexplained."""
    if triage.bucket in FAILING_BUCKETS:
        return f"{triage.name}: {triage.bucket} {triage.error or triage.explanation}"
    return ""


def summary(triage: ProgramTriage) -> tuple:
    return (triage.bucket, triage.static_reports, triage.runs, triage.total_steps,
            triage.complete)


def run(state: State, seconds: float, speed: HostSpeed) -> dict:
    starts: List[float] = []
    latencies: List[float] = []
    problems: List[str] = []
    buckets: collections.Counter = collections.Counter()
    while keep_measuring(latencies, seconds):
        for program in state.next_pass():
            started = time.perf_counter()
            triage = triage_program(program, config=state.config)
            latencies.append(time.perf_counter() - started)
            starts.append(started)
            buckets[triage.bucket] += 1
            problem = check(triage)
            if problem:
                problems.append(problem)
            speed.after(latencies[-1])
    return {
        "starts": starts,
        "latencies": latencies,
        "problems": problems,
        "failed": len(problems),
        "buckets": dict(buckets),
    }


def traced_triage(tracer: Tracer, program: GeneratedProgram, config: CampaignConfig):
    """``triage_program`` as separately traced layer calls, in its order."""
    verdict = program.name
    ir_program = traced_build(tracer, verdict, program.source, program.name + ".go")
    found = traced_gcatch(tracer, verdict, ir_program)
    with tracer.span("runtime.explore", verdict):
        exploration = explore(
            ir_program,
            entry=program.entry,
            max_runs=config.max_runs,
            max_steps=config.max_steps,
            max_total_steps=config.max_total_steps,
        )
    # triage_program classifies with the causes its recipe documents
    _, classification, explained, _ = classify_oracles(
        bool(found.bmoc), exploration, _explanations(program)
    )
    if classification in (AGREE_BUG, AGREE_CLEAN):
        bucket = BUCKET_AGREE
    else:
        bucket = BUCKET_EXPLAINED if explained else BUCKET_UNEXPLAINED
    outcome = (bucket, len(found.bmoc), exploration.runs, exploration.total_steps,
               exploration.complete)
    return outcome, found, exploration, ir_program


def run_traced(state: State, seconds: float) -> dict:
    run = TracedRun()
    while run.elapsed() < seconds:
        for program in state.next_pass():
            triage, (outcome, found, exploration, ir_program) = run.both(
                lambda: triage_program(program, config=state.config),
                lambda tracer: traced_triage(tracer, program, state.config),
            )
            problem = check(triage)
            if not problem and summary(triage) != outcome:
                problem = (f"{program.name}: traced calls {outcome} disagree with "
                           f"triage_program {summary(triage)}")
            if problem:
                run.problems.append(problem)
            run.count_gcatch(found, ir_program, program.source.count("\n"))
            run.effort["runs"] += exploration.runs
            run.effort["pruned"] += exploration.pruned_runs
            run.effort["steps"] += exploration.total_steps
            run.effort["complete"] += int(exploration.complete)
            run.effort["incidents"] += len(triage.incidents)
    rounds = len(run.untraced)
    effort = run.effort
    layers = run.layers(rounds)
    layers.update({
        "runtime.runs": (effort["runs"] / rounds, rounds),
        "runtime.pruned_runs": (effort["pruned"] / rounds, rounds),
        "runtime.steps": (effort["steps"] / rounds, rounds),
        "runtime.steps_per_s": (
            ratio(effort["steps"], run.tracer.total("runtime.explore")), effort["steps"]),
        "runtime.complete_share": (ratio(effort["complete"], rounds), rounds),
    })
    return run.result(layers)
