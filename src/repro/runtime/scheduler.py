"""Scheduling loop and execution results for the MiniGo runtime.

``run_program`` is the dynamic oracle used throughout the reproduction: it
plays the role of the paper's unit-test-plus-random-sleep validation
(§5.1's patch-correctness methodology). A seeded RNG picks which runnable
goroutine steps next, so distinct seeds explore distinct interleavings and
repeated seeds replay identical executions.

Outcomes of interest:

* ``leaked`` — goroutines still blocked when the program finishes: the
  dynamic symptom of a BMOC bug (a child goroutine parked forever);
* ``global_deadlock`` — every live goroutine blocked (Go's fatal
  "all goroutines are asleep" error);
* ``panicked`` / ``output`` / per-goroutine step counts for patch-overhead
  measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.checkpoint import Checkpoint
from repro.runtime.choices import Choice, ChoicePolicy, RandomPolicy, ReplayPolicy
from repro.runtime.interp import BLOCKED, RUNNABLE, Goroutine, Interpreter
from repro.runtime.values import Env, reset_runtime_ids
from repro.ssa import ir


@dataclass
class LeakedGoroutine:
    gid: int
    function: str
    blocked_line: int
    blocked_kind: str


@dataclass
class ExecutionResult:
    """Everything observable about one seeded execution."""

    seed: int
    steps: int = 0
    output: List[str] = field(default_factory=list)
    leaked: List[LeakedGoroutine] = field(default_factory=list)
    global_deadlock: bool = False
    deadlock_lines: List[int] = field(default_factory=list)
    panicked: bool = False
    panic_message: Optional[str] = None
    test_failed: bool = False
    hit_step_limit: bool = False
    goroutine_steps: Dict[int, int] = field(default_factory=dict)
    # every scheduling/select decision this execution made, in order;
    # feeding it back through a ReplayPolicy reproduces the run exactly
    choice_trace: List[Choice] = field(default_factory=list)

    @property
    def blocked_forever(self) -> bool:
        """True when some goroutine ended up permanently stuck."""
        return self.global_deadlock or bool(self.leaked)

    def blocked_lines(self) -> List[int]:
        lines = list(self.deadlock_lines)
        lines.extend(leak.blocked_line for leak in self.leaked)
        return sorted(set(lines))


def run_program(
    program: ir.Program,
    entry: str = "main",
    seed: int = 0,
    max_steps: int = 100_000,
    policy: Optional[ChoicePolicy] = None,
    collector=None,
    checkpoint: Optional[Checkpoint] = None,
) -> ExecutionResult:
    """Execute ``entry`` under one schedule; its parameters start nil.

    Without an explicit ``policy`` the schedule is drawn from a seeded RNG
    (the paper's random-sleep-style sampling); passing a policy lets the
    replayer and the systematic explorer drive the very same loop.
    ``collector`` (a :class:`repro.obs.Collector`) receives run counters;
    when ``None`` the scheduling loop pays no instrumentation cost.

    One loop runs both phases of a run, on one budget of ``max_steps``. A
    step counts in ``steps`` while the entry goroutine runs and in the
    interpreter's ``drain_steps`` after it returned. Nothing runnable and
    nothing asleep is a global deadlock while the entry goroutine runs;
    after it returned it is quiescence, and whatever is still blocked has
    leaked — the goroutines a BMOC bug parks forever.

    ``checkpoint`` (a :class:`~repro.runtime.checkpoint.Checkpoint`, consumed)
    resumes a run that took it instead of starting ``entry``: the loop picks
    up its step counts, so ``steps``, ``hit_step_limit`` and
    ``goroutine_steps`` come out as if the run had executed from the start.
    ``policy.trace`` must then hold the choices made before the checkpoint.
    """
    if policy is None:
        policy = RandomPolicy(random.Random(seed))
    interp = Interpreter(program, policy, collector=collector)
    if checkpoint is None:
        reset_runtime_ids()
        entry_func = program.functions.get(entry)
        if entry_func is None:
            raise KeyError(f"no entry function {entry!r}")
        env = Env()
        env.vars = dict.fromkeys(entry_func.params)
        main = interp.spawn(entry_func, env)
    else:
        checkpoint.restore(interp)
        main = interp.goroutines[0]  # the entry goroutine is spawned first
        if collector:
            collector.count("run.goroutines", len(interp.goroutines))
    result = ExecutionResult(seed=seed)

    while interp.steps + interp.drain_steps < max_steps:
        if interp.panicked:
            break
        runnable = _runnable(interp)
        if not runnable:
            if _only_sleepers(interp):
                interp.clock += 1  # let time pass
                continue
            result.global_deadlock = not main.done
            break
        entry_running = not main.done
        interp.step(runnable[policy.pick("sched", runnable, interp)])
        if entry_running:
            interp.steps += 1
        else:
            interp.drain_steps += 1
    else:
        result.hit_step_limit = True

    _collect(interp, main, result)
    result.choice_trace = list(policy.trace)
    if collector:
        collector.count("run.programs")
        collector.count("run.steps", result.steps)
        if result.blocked_forever:
            collector.count("run.blocked")
        if result.panicked:
            collector.count("run.panics")
    return result


def _runnable(interp: Interpreter) -> List[Goroutine]:
    return [
        g
        for g in interp.goroutines.values()
        if g.status == RUNNABLE and g.sleep_until <= interp.clock
    ]


def _only_sleepers(interp: Interpreter) -> bool:
    has_sleeper = False
    for goroutine in interp.goroutines.values():
        if goroutine.status == RUNNABLE:
            if goroutine.sleep_until > interp.clock:
                has_sleeper = True
            else:
                return False
    return has_sleeper


def _collect(interp: Interpreter, main: Goroutine, result: ExecutionResult) -> None:
    result.steps = interp.steps
    result.output = list(interp.output)
    result.panicked = interp.panicked
    result.panic_message = interp.panic_message
    result.test_failed = interp.test_failed
    result.goroutine_steps = {gid: g.steps for gid, g in interp.goroutines.items()}
    for gid, goroutine in interp.goroutines.items():
        if goroutine.status == BLOCKED:
            func_name = goroutine.frames[-1].func.name if goroutine.frames else "?"
            leak = LeakedGoroutine(
                gid=gid,
                function=func_name,
                blocked_line=goroutine.blocked_line,
                blocked_kind=goroutine.blocked_kind,
            )
            if result.global_deadlock:
                result.deadlock_lines.append(goroutine.blocked_line)
            if gid != main.gid or not result.global_deadlock:
                result.leaked.append(leak)


def explore_schedules(
    program: ir.Program,
    entry: str = "main",
    seeds: int = 20,
    max_steps: int = 100_000,
    collector=None,
) -> List[ExecutionResult]:
    """Run many seeds, mimicking the paper's random-sleep stress validation."""
    return [
        run_program(program, entry=entry, seed=seed, max_steps=max_steps, collector=collector)
        for seed in range(seeds)
    ]


def replay_trace(
    program: ir.Program,
    trace: List[Choice],
    entry: str = "main",
    seed: int = 0,
    max_steps: int = 100_000,
    collector=None,
) -> ExecutionResult:
    """Re-execute a recorded choice trace; the result is bit-identical.

    ``seed`` only labels the result (the RNG is never consulted during a
    replay); pass the original run's seed to make the dataclasses compare
    equal field-for-field.
    """
    result = run_program(
        program,
        entry=entry,
        seed=seed,
        max_steps=max_steps,
        policy=ReplayPolicy(trace),
        collector=collector,
    )
    if collector:
        collector.count("replay.runs")
        collector.count("replay.steps", result.steps)
    return result
