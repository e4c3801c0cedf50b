"""Tests for choice-trace recording and deterministic replay."""

import pytest

from repro.runtime.choices import Choice, ReplayDivergence
from repro.runtime.explorer import explore, outcome_signature
from repro.runtime.scheduler import replay_trace, run_program
from repro.ssa.builder import build_program

RACY = """package main

func main() {
	x := 0
	done := make(chan int, 1)
	go func() {
		x = 1
		done <- 1
	}()
	y := x
	<-done
	println(y)
}
"""

LEAKY = """package main

func worker(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	go worker(ch)
	println("done")
}
"""


class TestTraceRecording:
    def test_every_run_records_its_choices(self):
        program = build_program(RACY, "racy.go")
        outcome = run_program(program, seed=3)
        assert outcome.choice_trace
        assert all(isinstance(c, Choice) for c in outcome.choice_trace)
        assert all(0 <= c.index < c.options for c in outcome.choice_trace)

    def test_different_seeds_record_different_traces(self):
        program = build_program(RACY, "racy.go")
        traces = {tuple(run_program(program, seed=s).choice_trace) for s in range(10)}
        assert len(traces) > 1


class TestReplayFidelity:
    def test_replay_reproduces_identical_result(self):
        program = build_program(RACY, "racy.go")
        original = run_program(program, seed=5)
        replayed = replay_trace(program, original.choice_trace, seed=5)
        assert replayed == original  # field-for-field, trace included

    def test_leak_replays_from_trace(self):
        program = build_program(LEAKY, "leaky.go")
        leak = next(
            run_program(program, seed=s) for s in range(50) if run_program(program, seed=s).leaked
        )
        replayed = replay_trace(program, leak.choice_trace, seed=leak.seed)
        assert replayed.leaked == leak.leaked
        assert replayed == leak

    def test_explored_leak_replays(self):
        program = build_program(LEAKY, "leaky.go")
        exploration = explore(program)
        leak = exploration.leaking()[0]
        replayed = replay_trace(program, leak.choice_trace)
        assert outcome_signature(replayed) == outcome_signature(leak)

    def test_replay_scheduler_run_matches_signature(self):
        program = build_program(RACY, "racy.go")
        outcome = run_program(program, seed=7)
        replayed = replay_trace(program, outcome.choice_trace, seed=7)
        assert outcome_signature(replayed) == outcome_signature(outcome)


class TestReplayValidation:
    def test_truncated_trace_diverges(self):
        program = build_program(RACY, "racy.go")
        outcome = run_program(program, seed=1)
        with pytest.raises(ReplayDivergence):
            replay_trace(program, outcome.choice_trace[:2], seed=1)

    def test_wrong_option_count_diverges(self):
        program = build_program(RACY, "racy.go")
        outcome = run_program(program, seed=1)
        bad = [Choice(c.kind, c.options + 5, c.index) for c in outcome.choice_trace]
        with pytest.raises(ReplayDivergence):
            replay_trace(program, bad, seed=1)
