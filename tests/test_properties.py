"""Property-based tests over core invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.detector.bmoc import detect_bmoc
from repro.detector.paths import BranchEvent, conditions_satisfiable
from repro.fixer.patch import LineEdit, Patch
from repro.runtime.scheduler import explore_schedules, run_program
from repro.ssa.builder import build_program
from repro.ssa.dominators import dominator_tree
from tests.conftest import build

# ---------------------------------------------------------------------------
# detector vs. runtime oracle

_op_list = st.lists(st.sampled_from(["send", "recv"]), min_size=0, max_size=3)


def _random_program(buf: int, parent_ops, child_ops) -> str:
    body_child = "\n".join(
        "\t\tch <- 1" if op == "send" else "\t\t<-ch" for op in child_ops
    )
    body_parent = "\n".join("\tch <- 2" if op == "send" else "\t<-ch" for op in parent_ops)
    size = f", {buf}" if buf else ""
    return (
        "package main\n\nfunc main() {\n"
        f"\tch := make(chan int{size})\n"
        "\tgo func() {\n" + (body_child + "\n" if body_child else "") + "\t}()\n"
        + (body_parent + "\n" if body_parent else "")
        + "}\n"
    )


class TestDetectorSoundness:
    @settings(max_examples=60, deadline=None)
    @given(buf=st.integers(min_value=0, max_value=2), parent=_op_list, child=_op_list)
    def test_report_iff_some_schedule_blocks(self, buf, parent, child):
        """On straight-line two-goroutine channel programs (no loops, no
        branches, no aliasing), the BMOC detector agrees exactly with the
        dynamic oracle: it reports a bug iff some schedule blocks forever."""
        source = _random_program(buf, parent, child)
        program = build_program(source, "prop.go")
        reports = detect_bmoc(program).reports
        runs = explore_schedules(program, seeds=40, max_steps=4000)
        dynamic = any(r.blocked_forever for r in runs)
        assert bool(reports) == dynamic, source


# ---------------------------------------------------------------------------
# branch-condition satisfiability vs. brute force


class TestConditionSatisfiability:
    @settings(max_examples=120, deadline=None)
    @given(
        conds=st.lists(
            st.tuples(
                st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_brute_force_over_small_domain(self, conds):
        events = [
            BranchEvent(var="x", op=op, const=const, taken=taken, read_only=True, line=0)
            for op, const, taken in conds
        ]

        def holds(value, op, const, taken):
            result = {
                "==": value == const,
                "!=": value != const,
                "<": value < const,
                "<=": value <= const,
                ">": value > const,
                ">=": value >= const,
            }[op]
            return result == taken

        brute = any(
            all(holds(v, op, const, taken) for op, const, taken in conds)
            for v in range(-10, 11)
        )
        got = conditions_satisfiable(events)
        # the checker may only ever be *less* strict than the truth — it
        # never rejects a satisfiable conjunction
        if brute:
            assert got
        else:
            # integer-interval reasoning is exact on this fragment
            assert not got


# ---------------------------------------------------------------------------
# scheduler determinism / liveness


class TestSchedulerProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=1, max_value=4))
    def test_fan_in_always_completes_and_is_deterministic(self, seed, n):
        source = (
            "func main() {\n"
            f"\tch := make(chan int, {n})\n"
            f"\tfor i := 0; i < {n}; i++ {{\n"
            "\t\tgo func() {\n\t\t\tch <- i\n\t\t}()\n\t}\n"
            f"\ttotal := 0\n\tfor j := 0; j < {n}; j++ {{\n"
            "\t\ttotal = total + 1\n\t\t<-ch\n\t}\n\tprintln(total)\n}"
        )
        program = build(source)
        first = run_program(program, seed=seed, max_steps=20000)
        second = run_program(program, seed=seed, max_steps=20000)
        assert not first.blocked_forever
        assert first.output == [str(n)]
        assert first.output == second.output
        assert first.steps == second.steps

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=5))
    def test_buffered_channel_is_fifo(self, values):
        sends = "\n".join(f"\tch <- {v}" for v in values)
        recvs = "\n".join("\tprintln(<-ch)" for _ in values)
        source = (
            "func main() {\n"
            f"\tch := make(chan int, {len(values)})\n" + sends + "\n" + recvs + "\n}"
        )
        result = run_program(build(source), seed=3)
        assert result.output == [str(v) for v in values]


# ---------------------------------------------------------------------------
# patches


class TestPatchProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(st.text(alphabet="abcxyz ", max_size=8), min_size=2, max_size=8),
        target=st.integers(min_value=1, max_value=2),
        replacement=st.lists(st.text(alphabet="ABC", max_size=5), max_size=3),
    )
    def test_apply_is_deterministic_and_counts_nonnegative(self, lines, target, replacement):
        original = "\n".join(lines)
        patch = Patch(
            "buffer", "prop", original, edits=[LineEdit(line=target, new_lines=replacement)]
        )
        assert patch.apply() == patch.apply()
        assert patch.changed_lines() >= 0

    def test_noop_edit_changes_nothing(self):
        patch = Patch("buffer", "noop", "a\nb", edits=[LineEdit(line=1, new_lines=["a"])])
        assert patch.changed_lines() == 0


# ---------------------------------------------------------------------------
# dominators on randomly branching programs


def _branching_program(depth_choices) -> str:
    body = []
    for i, branch in enumerate(depth_choices):
        if branch:
            body.append(f"\tif x > {i} {{\n\t\tprintln({i})\n\t}}")
        else:
            body.append(f"\tprintln({i})")
    return "func f(x int) {\n" + "\n".join(body) + "\n}"


class TestDominatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.booleans(), min_size=1, max_size=5))
    def test_dominator_axioms(self, shape):
        program = build(_branching_program(shape))
        func = program.functions["f"]
        tree = dominator_tree(func)
        blocks = func.reachable_blocks()
        for block in blocks:
            assert tree.dominates(func.entry, block)
            assert tree.dominates(block, block)
