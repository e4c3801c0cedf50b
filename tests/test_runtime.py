"""Tests for the runtime: channel semantics, scheduling, deadlock oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.choices import ChoicePolicy
from repro.runtime.scheduler import explore_schedules, run_program
from tests.conftest import build


def run(source: str, entry: str = "main", seed: int = 0, max_steps: int = 50_000):
    return run_program(build(source), entry=entry, seed=seed, max_steps=max_steps)


class TestBasicExecution:
    def test_arithmetic_and_output(self):
        result = run("func main() {\n\tprintln(2+3*4, 10%3, 7/2)\n}")
        assert result.output == ["14 1 3"]

    def test_buffered_channel_round_trip(self):
        result = run(
            "func main() {\n\tch := make(chan int, 2)\n\tch <- 1\n\tch <- 2\n"
            "\tprintln(<-ch, <-ch)\n}"
        )
        assert result.output == ["1 2"]

    def test_rendezvous(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- 99\n\t}()\n"
            "\tprintln(<-ch)\n}"
        )
        assert result.output == ["99"]
        assert not result.blocked_forever

    def test_range_over_closed_channel(self):
        result = run(
            "func main() {\n\tch := make(chan int, 3)\n"
            "\tch <- 1\n\tch <- 2\n\tch <- 3\n\tclose(ch)\n"
            "\ttotal := 0\n\tfor v := range ch {\n\t\ttotal = total + v\n\t}\n"
            "\tprintln(total)\n}"
        )
        assert result.output == ["6"]

    def test_select_default(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n"
            "\tselect {\n\tcase <-ch:\n\t\tprintln(\"recv\")\n"
            "\tdefault:\n\t\tprintln(\"default\")\n\t}\n}"
        )
        assert result.output == ["default"]

    def test_closed_channel_drains_buffer_first(self):
        result = run(
            "func main() {\n\tch := make(chan string, 2)\n\tch <- \"a\"\n\tclose(ch)\n"
            "\tv1, ok1 := <-ch\n\tv2, ok2 := <-ch\n\tprintln(v1, ok1)\n\tprintln(v2, ok2)\n}"
        )
        assert result.output == ["a True", " False"]

    def test_recv_ok_flag(self):
        result = run(
            "func main() {\n\tch := make(chan int, 1)\n\tclose(ch)\n"
            "\tv, ok := <-ch\n\tprintln(v, ok)\n}"
        )
        assert result.output == ["0 False"]

    def test_function_calls_and_returns(self):
        result = run(
            "func add(a int, b int) int {\n\treturn a + b\n}\n"
            "func main() {\n\tprintln(add(3, 4))\n}"
        )
        assert result.output == ["7"]

    def test_multi_return(self):
        result = run(
            "func two() (int, int) {\n\treturn 1, 2\n}\n"
            "func main() {\n\ta, b := two()\n\tprintln(a, b)\n}"
        )
        assert result.output == ["1 2"]

    def test_method_dispatch(self):
        result = run(
            "type box struct {\n\tv int\n}\n"
            "func (b *box) get() int {\n\treturn b.v\n}\n"
            "func main() {\n\tb := box{v: 5}\n\tprintln(b.get())\n}"
        )
        assert result.output == ["5"]

    def test_closure_captures_by_reference(self):
        result = run(
            "func main() {\n\tx := 0\n\tdone := make(chan int)\n"
            "\tgo func() {\n\t\tx = 41\n\t\tdone <- 1\n\t}()\n"
            "\t<-done\n\tprintln(x + 1)\n}"
        )
        assert result.output == ["42"]

    def test_external_functions_return_zero(self):
        result = run("func main() {\n\tv := mystery()\n\tprintln(v)\n}")
        assert result.output == ["0"]


class TestMutexesAndWaitGroups:
    def test_mutex_serializes(self):
        source = (
            "func main() {\n\tvar mu sync.Mutex\n\tvar wg sync.WaitGroup\n\tn := 0\n"
            "\tfor i := 0; i < 4; i++ {\n\t\twg.Add(1)\n"
            "\t\tgo func() {\n\t\t\tmu.Lock()\n\t\t\tn = n + 1\n\t\t\tmu.Unlock()\n"
            "\t\t\twg.Done()\n\t\t}()\n\t}\n\twg.Wait()\n\tprintln(n)\n}"
        )
        for seed in (0, 3, 9):
            assert run(source, seed=seed).output == ["4"]

    def test_unlock_of_unlocked_panics(self):
        result = run("func main() {\n\tvar mu sync.Mutex\n\tmu.Unlock()\n}")
        assert result.panicked

    def test_negative_waitgroup_panics(self):
        result = run("func main() {\n\tvar wg sync.WaitGroup\n\twg.Done()\n}")
        assert result.panicked

    def test_deferred_unlock_runs(self):
        result = run(
            "func locked() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tdefer mu.Unlock()\n"
            "\tprintln(\"in\")\n}\n"
            "func main() {\n\tlocked()\n\tprintln(\"out\")\n}"
        )
        assert result.output == ["in", "out"]


class TestDefersAndPanics:
    def test_defer_close_unblocks_ranger(self):
        result = run(
            "func main() {\n\tch := make(chan int, 1)\n"
            "\tgo func() {\n\t\tfor v := range ch {\n\t\t\tprintln(v)\n\t\t}\n\t}()\n"
            "\tproduce(ch)\n}\n"
            "func produce(ch chan int) {\n\tdefer close(ch)\n\tch <- 8\n}"
        )
        assert not result.blocked_forever

    def test_deferred_send_blocks_until_received(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tprintln(<-ch)\n\t}()\n"
            "\tsend(ch)\n}\n"
            "func send(ch chan int) {\n\tdefer func() {\n\t\tch <- 5\n\t}()\n}"
        )
        assert result.output == ["5"]

    def test_send_on_closed_channel_panics(self):
        result = run("func main() {\n\tch := make(chan int, 1)\n\tclose(ch)\n\tch <- 1\n}")
        assert result.panicked
        assert result.panic_message == "send on closed channel"

    def test_close_of_closed_channel_panics(self):
        result = run("func main() {\n\tch := make(chan int)\n\tclose(ch)\n\tclose(ch)\n}")
        assert result.panicked
        assert result.panic_message == "close of closed channel"

    def test_panic_reported(self):
        result = run('func main() {\n\tpanic("boom")\n}')
        assert result.panicked
        assert result.panic_message == "boom"

    def test_divide_by_zero_panics(self):
        result = run("func main() {\n\tx := 0\n\tprintln(1 / x)\n}")
        assert result.panicked

    def test_fatal_marks_test_failed(self):
        result = run(
            'func TestX(t *testing.T) {\n\tt.Fatalf("no")\n\tprintln("unreached")\n}',
            entry="TestX",
        )
        assert result.test_failed
        assert result.output == []

    def test_entry_parameters_start_nil(self):
        result = run(
            'func TestX(t *testing.T) {\n\tif t == nil {\n\t\tprintln("nil t")\n\t}\n}',
            entry="TestX",
        )
        assert result.output == ["nil t"]


class TestDeadlockOracle:
    def test_global_deadlock_detected(self):
        result = run("func main() {\n\tch := make(chan int)\n\tch <- 1\n}")
        assert result.global_deadlock
        assert result.blocked_lines() == [4]  # +1 for the package clause

    def test_leaked_goroutine_detected(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(\"bye\")\n}"
        )
        assert not result.global_deadlock
        assert len(result.leaked) == 1
        assert result.leaked[0].blocked_kind == "send"

    def test_self_deadlock_double_lock(self):
        result = run("func main() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Lock()\n}")
        assert result.global_deadlock

    def test_nil_channel_send_blocks(self):
        result = run(
            "func main() {\n\tvar ch chan int\n"
            "\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(\"go\")\n}"
        )
        assert result.leaked

    def test_full_buffer_blocks_sender(self):
        result = run(
            "func main() {\n\tch := make(chan int, 2)\n\tch <- 1\n\tch <- 2\n"
            "\tch <- 3\n\tprintln(\"unreached\")\n}"
        )
        assert result.global_deadlock
        assert result.blocked_lines() == [6]
        assert result.output == []

    def test_recv_from_empty_buffer_blocks(self):
        result = run("func main() {\n\tch := make(chan int, 1)\n\t<-ch\n}")
        assert result.global_deadlock

    def test_wg_wait_forever(self):
        result = run("func main() {\n\tvar wg sync.WaitGroup\n\twg.Add(1)\n\twg.Wait()\n}")
        assert result.global_deadlock

    def test_step_limit_reported(self):
        result = run("func main() {\n\tfor {\n\t\tprintln(\"spin\")\n\t}\n}", max_steps=200)
        assert result.hit_step_limit


class _FirstRunnable(ChoicePolicy):
    """Always steps the first runnable goroutine: main until it blocks or returns."""

    def _decide(self, kind, options, interp):
        return 0


# main takes 5 steps and returns while its child still runs; the child's
# sixth step parks it on a send nobody receives
ORPHAN = """package main

func main() {
	ch := make(chan int)
	go func() {
		x := 0
		x = x + 1
		x = x + 1
		ch <- x
	}()
	println("bye")
}
"""

# main parks on its send at step 3 and the child on its own at step 4
STUCK = """package main

func main() {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	ch <- 2
	<-ch
	<-ch
}
"""


class TestRunPhases:
    """One loop runs both phases of a run on one step budget: a step counts
    in ``steps`` while main runs and in the drain after it returned. Nothing
    runnable is a global deadlock while main runs and quiescence after, and
    a budget that ends the loop sets ``hit_step_limit``."""

    @pytest.mark.parametrize(
        "source,max_steps,expected",
        [
            (ORPHAN, 5, (5, 5, True, False, [], [])),
            (ORPHAN, 8, (5, 8, True, False, [], [])),
            (ORPHAN, 100, (5, 11, False, False, [], [("main$lit1", 9, "send")])),
            (STUCK, 4, (4, 4, True, False, [], [("main", 8, "send"), ("main$lit1", 6, "send")])),
            (STUCK, 100, (4, 4, False, True, [8, 6], [("main$lit1", 6, "send")])),
        ],
        ids=["orphan-ends-on-mains-last-step", "orphan-ends-in-the-drain", "orphan-ample",
             "stuck-ends-on-the-last-park", "stuck-ample"],
    )
    def test_budget_and_phase_decide_the_outcome(self, source, max_steps, expected):
        result = run_program(build(source), max_steps=max_steps, policy=_FirstRunnable())
        leaked = [(l.function, l.blocked_line, l.blocked_kind) for l in result.leaked]
        got = (
            result.steps,
            sum(result.goroutine_steps.values()),
            result.hit_step_limit,
            result.global_deadlock,
            result.deadlock_lines,
            leaked,
        )
        assert got == expected


class TestSchedulerProperties:
    def test_same_seed_same_execution(self):
        source = (
            "func main() {\n\tch := make(chan int, 3)\n"
            "\tfor i := 0; i < 3; i++ {\n\t\tgo func() {\n\t\t\tch <- i\n\t\t}()\n\t}\n"
            "\tprintln(<-ch, <-ch, <-ch)\n}"
        )
        a = run(source, seed=11)
        b = run(source, seed=11)
        assert a.output == b.output
        assert a.steps == b.steps

    def test_select_nondeterminism_across_seeds(self):
        source = (
            "func main() {\n\ta := make(chan int, 1)\n\tb := make(chan int, 1)\n"
            "\ta <- 1\n\tb <- 2\n"
            "\tselect {\n\tcase v := <-a:\n\t\tprintln(v)\n"
            "\tcase v := <-b:\n\t\tprintln(v)\n\t}\n}"
        )
        outputs = {tuple(run(source, seed=s).output) for s in range(20)}
        assert outputs == {("1",), ("2",)}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_determinism_property(self, seed):
        source = (
            "func main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- 7\n\t}()\n\tprintln(<-ch)\n}"
        )
        first = run(source, seed=seed)
        second = run(source, seed=seed)
        assert first.output == second.output
        assert first.goroutine_steps == second.goroutine_steps

    def test_explore_schedules_counts(self):
        source = "func main() {\n\tprintln(\"hi\")\n}"
        results = explore_schedules(build(source), seeds=5)
        assert len(results) == 5
        assert all(r.output == ["hi"] for r in results)
