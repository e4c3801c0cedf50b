"""Tests for the systematic schedule explorer (the dynamic oracle)."""

import pytest

from repro.runtime.explorer import CONFLICT_ALL, explore, independent, outcome_signature
from repro.runtime.scheduler import run_program
from repro.ssa.builder import build_program

# A rare race: the leak needs the background writer to win ~6 consecutive
# scheduling picks before main reads ``e``, so random sampling almost never
# sees it (the first leaking seed is 51), while systematic search proves it
# in ~a dozen runs.
RARE_RACE = """package main

func waitStop(stop chan int) {
	<-stop
}

func main() {
	stop := make(chan int)
	e := 0
	go waitStop(stop)
	go func() {
		d := 0
		d = d + 1
		d = d + 1
		d = d + 1
		e = 1
	}()
	if e == 0 {
		stop <- 1
	}
	println("done", e)
}
"""

# Two tiny programs whose *unpruned* schedule space is still enumerable, for
# checking that sleep-set pruning drops redundant orders but no outcomes.
TINY_RACE = """package main

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

TINY_SELECT = """package main

func main() {
	a := make(chan int, 1)
	b := make(chan int, 1)
	a <- 1
	b <- 2
	select {
	case v := <-a:
		println("a", v)
	case v := <-b:
		println("b", v)
	}
}
"""

CLEAN = """package main

func main() {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	println(<-ch)
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


class TestExhaustiveBeatsSampling:
    def test_random_seeds_miss_the_rare_leak(self):
        program = build_program(RARE_RACE, "rare.go")
        for seed in range(20):
            outcome = run_program(program, seed=seed)
            assert not outcome.blocked_forever, f"seed {seed} unexpectedly leaked"

    def test_exploration_proves_the_rare_leak(self):
        program = build_program(RARE_RACE, "rare.go")
        exploration = explore(program)
        assert exploration.complete
        assert exploration.any_leak
        leak = exploration.leaking()[0]
        assert leak.leaked[0].function == "waitStop"
        # the witness is a reproducible trace, not a lucky seed
        assert leak.choice_trace

    def test_clean_program_proven_leak_free(self):
        exploration = explore(build_program(CLEAN, "clean.go"))
        assert exploration.complete
        assert exploration.leak_free
        assert not exploration.any_leak


class TestPruningSoundness:
    @pytest.mark.parametrize(
        "source,name",
        [(TINY_RACE, "tiny_race.go"), (TINY_SELECT, "tiny_select.go")],
    )
    def test_pruned_and_unpruned_agree_on_outcomes(self, source, name):
        program = build_program(source, name)
        pruned = explore(program, max_runs=4096, prune=True)
        unpruned = explore(program, max_runs=4096, prune=False)
        assert pruned.complete and unpruned.complete
        assert set(pruned.signatures()) == set(unpruned.signatures())
        assert pruned.runs <= unpruned.runs

    def test_pruning_saves_runs_under_contention(self):
        program = build_program(TINY_RACE, "tiny_race.go")
        pruned = explore(program, max_runs=4096, prune=True)
        unpruned = explore(program, max_runs=4096, prune=False)
        assert pruned.complete and unpruned.complete
        assert pruned.runs < unpruned.runs

    def test_tiny_race_sees_both_values(self):
        exploration = explore(build_program(TINY_RACE, "tiny_race.go"))
        outputs = {sig[0] for sig in exploration.signatures()}
        assert ("0",) in outputs and ("1",) in outputs

    def test_select_explores_both_cases(self):
        exploration = explore(build_program(TINY_SELECT, "tiny_select.go"))
        outputs = {sig[0] for sig in exploration.signatures()}
        assert ("a 1",) in outputs and ("b 2",) in outputs


class TestBoundsHonesty:
    def test_run_budget_marks_incomplete(self):
        exploration = explore(build_program(RARE_RACE, "rare.go"), max_runs=2)
        assert not exploration.complete
        assert not exploration.leak_free  # no proof from a truncated search

    def test_leaky_program_counts_schedules(self):
        exploration = explore(build_program(LEAKY, "leaky.go"), every_outcome=True)
        assert exploration.complete
        assert exploration.any_leak
        assert exploration.runs >= 2  # at least the leak and the clean order
        assert len(exploration.outcomes) >= 1

    def test_default_search_stops_at_its_first_leak(self):
        program = build_program(LEAKY, "leaky.go")
        full = explore(program, every_outcome=True)
        stopped = explore(program)
        assert full.complete and full.stopped == "exhausted" and full.runs == 2
        assert stopped.stopped == "first-leak" and stopped.runs == 1
        assert not stopped.complete  # the other order was never run
        assert not stopped.leak_free and stopped.any_leak
        assert stopped.outcomes == full.outcomes[:1]
        assert "(stopped at first leak;" in stopped.render()
        assert stopped.to_json()["stopped"] == "first-leak"

    def test_run_budget_stop_is_recorded(self):
        exploration = explore(build_program(RARE_RACE, "rare.go"), max_runs=2)
        assert exploration.stopped == "max-runs"
        assert "(bounded;" in exploration.render()

    def test_render_mentions_leak(self):
        exploration = explore(build_program(LEAKY, "leaky.go"))
        text = exploration.render()
        assert "LEAK" in text
        assert "worker" in text


class TestIndependence:
    def test_disjoint_footprints_commute(self):
        assert independent(frozenset({("io",)}), frozenset({("Channel", 1)}))

    def test_overlap_conflicts(self):
        fp = frozenset({("Channel", 1)})
        assert not independent(fp, fp)

    def test_wildcard_conflicts_with_everything(self):
        assert not independent(frozenset({CONFLICT_ALL}), frozenset())

    def test_signature_is_gid_free(self):
        program = build_program(LEAKY, "leaky.go")
        a = run_program(program, seed=0)
        b = run_program(program, seed=3)
        if a.blocked_forever == b.blocked_forever:
            assert outcome_signature(a) == outcome_signature(b)


@pytest.mark.slow
class TestCorpusConfirmation:
    def test_every_detectable_bug_dynamically_confirmed(self):
        from repro.corpus.bugset import build_bug_set

        for case in build_bug_set():
            if not case.detectable:
                continue
            program = build_program(case.source, case.case_id + ".go")
            exploration = explore(program, entry=case.driver or "main")
            assert exploration.any_leak, f"{case.case_id}: no leaking schedule found"
