"""Deeper Go-semantics tests for the runtime: select edge cases, RWMutex,
panic propagation, closures, and goroutine lifecycle."""

import pytest

from repro.runtime.scheduler import explore_schedules, run_program
from tests.conftest import build


def run(source: str, entry: str = "main", seed: int = 0, max_steps: int = 50_000):
    return run_program(build(source), entry=entry, seed=seed, max_steps=max_steps)


class TestSelectSemantics:
    def test_select_on_closed_channel_takes_recv_case(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n\tclose(ch)\n"
            "\tselect {\n\tcase v, ok := <-ch:\n\t\tprintln(v, ok)\n\t}\n}"
        )
        assert result.output == ["0 False"]

    def test_select_send_case_on_closed_channel_panics(self):
        result = run(
            "func main() {\n\tch := make(chan int, 1)\n\tclose(ch)\n"
            "\tselect {\n\tcase ch <- 1:\n\t\tprintln(\"sent\")\n\t}\n}"
        )
        assert result.panicked

    def test_select_blocks_until_partner(self):
        result = run(
            "func main() {\n\ta := make(chan int)\n"
            "\tgo func() {\n\t\ttime.Sleep(10)\n\t\ta <- 5\n\t}()\n"
            "\tselect {\n\tcase v := <-a:\n\t\tprintln(v)\n\t}\n}"
        )
        assert result.output == ["5"]
        assert not result.blocked_forever

    def test_two_selects_rendezvous_with_each_other(self):
        # goroutine A selects on send, goroutine B selects on recv: the
        # second to park must find the first
        result = run(
            "func main() {\n\tc := make(chan int)\n\tdone := make(chan int, 1)\n"
            "\tgo func() {\n\t\tselect {\n\t\tcase c <- 9:\n\t\t}\n\t\tdone <- 1\n\t}()\n"
            "\tselect {\n\tcase v := <-c:\n\t\tprintln(v)\n\t}\n\t<-done\n}"
        )
        assert result.output == ["9"]
        assert not result.blocked_forever

    def test_select_default_when_nothing_ready(self):
        result = run(
            "func main() {\n\tch := make(chan int)\n"
            "\tfor i := 0; i < 3; i++ {\n"
            "\t\tselect {\n\t\tcase <-ch:\n\t\t\tprintln(\"recv\")\n"
            "\t\tdefault:\n\t\t\tprintln(\"idle\")\n\t\t}\n\t}\n}"
        )
        assert result.output == ["idle", "idle", "idle"]

    def test_select_prefers_ready_over_default(self):
        result = run(
            "func main() {\n\tch := make(chan int, 1)\n\tch <- 7\n"
            "\tselect {\n\tcase v := <-ch:\n\t\tprintln(v)\n\tdefault:\n\t\tprintln(\"no\")\n\t}\n}"
        )
        assert result.output == ["7"]


class TestRWMutex:
    def test_multiple_readers(self):
        result = run(
            "func main() {\n\tvar mu sync.RWMutex\n\tvar wg sync.WaitGroup\n"
            "\tn := 0\n"
            "\tfor i := 0; i < 3; i++ {\n\t\twg.Add(1)\n"
            "\t\tgo func() {\n\t\t\tmu.RLock()\n\t\t\tn = n + 1\n\t\t\tmu.RUnlock()\n"
            "\t\t\twg.Done()\n\t\t}()\n\t}\n\twg.Wait()\n\tprintln(n)\n}"
        )
        assert result.output == ["3"]

    def test_writer_excludes_readers(self):
        result = run(
            "func main() {\n\tvar mu sync.RWMutex\n\tmu.Lock()\n"
            "\tdone := make(chan int, 1)\n"
            "\tgo func() {\n\t\tmu.RLock()\n\t\tmu.RUnlock()\n\t\tdone <- 1\n\t}()\n"
            "\ttime.Sleep(5)\n\tmu.Unlock()\n\tprintln(<-done)\n}"
        )
        assert result.output == ["1"]
        assert not result.blocked_forever

    def test_reader_blocks_writer(self):
        result = run(
            "func main() {\n\tvar mu sync.RWMutex\n\tmu.RLock()\n\tmu.Lock()\n}"
        )
        assert result.global_deadlock


class TestPanicsAndDefers:
    def test_panic_runs_deferred_unlocks(self):
        result = run(
            "func risky(mu *sync.Mutex) {\n\tmu.Lock()\n\tdefer mu.Unlock()\n"
            '\tpanic("boom")\n}\n'
            "func main() {\n\tvar mu sync.Mutex\n\trisky(mu)\n}"
        )
        assert result.panicked
        assert result.panic_message == "boom"

    def test_panic_in_child_crashes_program(self):
        result = run(
            'func main() {\n\tgo func() {\n\t\tpanic("child")\n\t}()\n\ttime.Sleep(50)\n}'
        )
        assert result.panicked

    def test_deferred_close_during_panic_unblocks_waiter(self):
        result = run(
            "func crash(done chan int) {\n\tdefer close(done)\n\tpanic(\"x\")\n}\n"
            "func main() {\n\tdone := make(chan int)\n\tcrash(done)\n}"
        )
        assert result.panicked  # the panic still crashes, but close ran

    def test_defers_run_lifo(self):
        result = run(
            "func main() {\n\tch := make(chan int, 3)\n"
            "\tdefer func() {\n\t\tch <- 1\n\t}()\n"
            "\tdefer func() {\n\t\tch <- 2\n\t}()\n"
            "\tdefer func() {\n\t\tch <- 3\n\t}()\n"
            "\tprintln(\"body\")\n}"
        )
        # outputs nothing else; validate via step: program ends cleanly
        assert result.output == ["body"]
        assert not result.blocked_forever

    def test_defer_in_goroutine_runs_at_exit(self):
        result = run(
            "func main() {\n\tdone := make(chan int)\n"
            "\tgo func() {\n\t\tdefer close(done)\n\t\tprintln(\"work\")\n\t}()\n"
            "\t<-done\n\tprintln(\"joined\")\n}"
        )
        assert result.output == ["work", "joined"]


class TestRuntimePanics:
    """A bad index or a negative size panics with Go's runtime message
    instead of crashing the interpreter or being silently accepted."""

    @pytest.mark.parametrize(
        "body,message",
        [
            ("\ts := make([]int, 2)\n\ti := 5\n\tx := s[i]\n\tprintln(x)\n",
             "index out of range [5] with length 2"),
            ("\ts := make([]int, 2)\n\ti := 2\n\ts[i] = 7\n",
             "index out of range [2] with length 2"),
            ("\ts := make([]int, 2)\n\ti := 0 - 1\n\tx := s[i]\n\tprintln(x)\n",
             "index out of range [-1]"),
            ("\ts := make([]int, 2)\n\ti := 0 - 1\n\ts[i] = 7\n\tprintln(s[1])\n",
             "index out of range [-1]"),
            ("\tn := 0 - 2\n\tc := make(chan int, n)\n\tprintln(len(c))\n",
             "makechan: size out of range"),
            ("\tn := 0 - 2\n\ts := make([]int, n)\n\tprintln(len(s))\n",
             "makeslice: len out of range"),
            ("\tvar s []int\n\tx := s[0]\n\tprintln(x)\n",
             "index out of range [0] with length 0"),
            ("\tvar s []int\n\ts[1] = 2\n\tprintln(len(s))\n",
             "index out of range [1] with length 0"),
            ('\tm := "ab"\n\ti := 5\n\tprintln(m[i])\n',
             "index out of range [5] with length 2"),
            ('\tm := "ab"\n\ti := 0 - 1\n\tprintln(m[i])\n',
             "index out of range [-1]"),
        ],
        ids=["get-past-end", "set-at-length", "get-negative", "set-negative",
             "makechan-negative", "makeslice-negative", "nil-slice-get", "nil-slice-set",
             "string-get-past-end", "string-get-negative"],
    )
    def test_go_runtime_panic(self, body, message):
        result = run("func main() {\n" + body + "}")
        assert result.panicked
        assert result.panic_message == message
        assert result.output == []

    def test_in_range_index_and_sizes_run(self):
        result = run(
            "func main() {\n\ts := make([]int, 2)\n\ti := 1\n\ts[i] = 7\n"
            "\tc := make(chan int, 0)\n\tprintln(s[i], len(s), cap(c))\n}"
        )
        assert not result.panicked
        assert result.output == ["7 2 0"]

    def test_string_index_reads_a_utf8_byte(self):
        result = run(
            'func main() {\n\tm := "ab\u00e9"\n\ti := len(m) - 1\n'
            "\tprintln(m[0], m[1], len(m), m[i])\n}"
        )
        assert not result.panicked
        assert result.output == ["97 98 4 169"]


class TestClosuresAndScoping:
    def test_loop_variable_shared_capture(self):
        # MiniGo loop variables are a single register (pre-Go-1.22
        # semantics): captures share the final value unless copied
        result = run(
            "func main() {\n\tvar wg sync.WaitGroup\n\tsum := 0\n"
            "\tvar mu sync.Mutex\n"
            "\tfor i := 0; i < 3; i++ {\n\t\twg.Add(1)\n"
            "\t\tv := i\n"
            "\t\tgo func() {\n\t\t\tmu.Lock()\n\t\t\tsum = sum + v\n\t\t\tmu.Unlock()\n"
            "\t\t\twg.Done()\n\t\t}()\n\t}\n\twg.Wait()\n\tprintln(sum)\n}"
        )
        assert result.output == ["3"]  # 0+1+2 via the copied v

    def test_shadowed_variable_isolated(self):
        result = run(
            "func main() {\n\tx := 1\n\tif x > 0 {\n\t\tx := 10\n\t\tprintln(x)\n\t}\n"
            "\tprintln(x)\n}"
        )
        assert result.output == ["10", "1"]

    def test_method_value_receiver_mutation(self):
        result = run(
            "type acc struct {\n\tn int\n}\n"
            "func (a *acc) bump() {\n\ta.n = a.n + 1\n}\n"
            "func main() {\n\ta := acc{}\n\ta.bump()\n\ta.bump()\n\tprintln(a.n)\n}"
        )
        assert result.output == ["2"]


class TestGoroutineLifecycle:
    def test_main_exit_kills_running_children(self):
        result = run(
            "func main() {\n\tgo func() {\n\t\tfor {\n\t\t\tprintln(\"spin\")\n\t\t}\n\t}()\n"
            "\tprintln(\"bye\")\n}",
            max_steps=2000,
        )
        # the child is still RUNNABLE at exit, not blocked: no leak reported
        assert not result.leaked or result.hit_step_limit

    def test_grandchild_goroutines(self):
        result = run(
            "func main() {\n\tdone := make(chan int)\n"
            "\tgo func() {\n\t\tgo func() {\n\t\t\tdone <- 1\n\t\t}()\n\t}()\n"
            "\tprintln(<-done)\n}"
        )
        assert result.output == ["1"]

    def test_many_goroutines_fan_in(self):
        result = run(
            "func main() {\n\tch := make(chan int, 8)\n"
            "\tfor i := 0; i < 8; i++ {\n\t\tgo func() {\n\t\t\tch <- 1\n\t\t}()\n\t}\n"
            "\ttotal := 0\n\tfor j := 0; j < 8; j++ {\n\t\ttotal = total + <-ch\n\t}\n"
            "\tprintln(total)\n}"
        )
        assert result.output == ["8"]

    def test_sleep_orders_events(self):
        outputs = set()
        for seed in range(5):
            result = run(
                "func main() {\n\tch := make(chan int, 1)\n"
                "\tgo func() {\n\t\ttime.Sleep(100)\n\t\tch <- 2\n\t}()\n"
                "\tch <- 1\n\tprintln(<-ch)\n}",
                seed=seed,
            )
            outputs.add(tuple(result.output))
        # the sleeper practically always loses the race for the buffer slot
        assert ("1",) in outputs
