"""Tests for GFix: the dispatcher, the three strategies, and patch safety."""

import pytest

from repro.api import Project
from repro.detector.bmoc import detect_bmoc
from repro.fixer.dispatcher import GFix
from repro.fixer.patch import LineEdit, Patch, indent_of, line_text
from repro.obs import Collector
from tests.conftest import build


def fix_first(source: str, filename: str = "fix.go"):
    project = Project.from_source(
        source if source.lstrip().startswith("package") else "package main\n" + source,
        filename,
    )
    result = project.detect()
    bugs = result.bmoc.bmoc_channel_bugs()
    assert bugs, "expected a BMOC bug to fix"
    return project, project.fix(bugs[0])


class TestPatchMechanics:
    def test_replace_line(self):
        patch = Patch("buffer", "t", "a\nb\nc", edits=[LineEdit(line=2, new_lines=["B"])])
        assert patch.apply() == "a\nB\nc"
        assert patch.changed_lines() == 1

    def test_delete_line(self):
        patch = Patch("defer", "t", "a\nb\nc", edits=[LineEdit(line=2, new_lines=[])])
        assert patch.apply() == "a\nc"
        assert patch.changed_lines() == 1

    def test_insert_after(self):
        patch = Patch("stop", "t", "a\nb", edits=[LineEdit(after=1, new_lines=["x", "y"])])
        assert patch.apply() == "a\nx\ny\nb"
        assert patch.changed_lines() == 2

    def test_unified_diff(self):
        patch = Patch("buffer", "t", "a\nb", edits=[LineEdit(line=1, new_lines=["A"])])
        diff = patch.unified_diff("f.go")
        assert "-a" in diff and "+A" in diff

    def test_indent_helper(self):
        assert indent_of("x\n\tfoo\n", 2) == "\t"
        assert line_text("x\nyy\n", 2) == "yy"

    def test_patch_is_idempotent_per_apply(self):
        patch = Patch("buffer", "t", "a\nb", edits=[LineEdit(line=2, new_lines=["B"])])
        assert patch.apply() == patch.apply()


class TestStrategyBuffer:
    def test_figure1_one_line(self, figure1_source):
        project, fix = fix_first(figure1_source)
        assert fix.strategy == "buffer"
        assert fix.patch.changed_lines() == 1
        assert "make(chan int, 1)" in fix.patch.apply()

    def test_patched_program_clean_and_leak_free(self, figure1_source):
        project, fix = fix_first(figure1_source)
        patched = project.apply_fix(fix)
        assert patched.detect().bmoc.reports == []
        runs = patched.stress(entry="main", seeds=15, max_steps=20000)
        assert not any(r.blocked_forever for r in runs)

    def test_rejects_buffered_channel(self):
        # already-buffered channels are not single-sending bugs
        source = (
            "func main() {\n\tch := make(chan int, 1)\n"
            "\tgo func() {\n\t\tch <- 1\n\t\tch <- 2\n\t\tch <- 3\n\t}()\n\t<-ch\n}"
        )
        project = Project.from_source("package main\n" + source)
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        assert bugs
        fix = project.fix(bugs[0])
        assert fix.strategy != "buffer"

    def test_rejects_side_effects_after_o2(self):
        source = (
            "func compute() int {\n\treturn 1\n}\n"
            "func run(ctx context.Context) int {\n"
            "\tout := make(chan int)\n\tshared := 0\n"
            "\tgo func() {\n\t\tout <- compute()\n\t\tshared = 1\n\t}()\n"
            "\tselect {\n\tcase v := <-out:\n\t\treturn v + shared\n"
            "\tcase <-ctx.Done():\n\t\treturn 0\n\t}\n}"
        )
        project, fix = fix_first(source)
        assert not fix.fixed
        assert fix.reason == "side-effects"

    def test_rejects_parent_blocked(self):
        source = (
            "func main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tselect {\n\t\tcase ch <- 1:\n\t\tdefault:\n\t\t}\n\t}()\n"
            "\t<-ch\n}"
        )
        project, fix = fix_first(source)
        assert not fix.fixed
        assert fix.reason == "parent-blocked"

    def test_rejects_multiple_children(self):
        source = (
            "func one() int {\n\treturn 1\n}\nfunc two() int {\n\treturn 2\n}\n"
            "func run(ctx context.Context) int {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- one()\n\t}()\n"
            "\tgo func() {\n\t\tch <- two()\n\t}()\n"
            "\tselect {\n\tcase v := <-ch:\n\t\treturn v\n\tcase <-ctx.Done():\n\t\treturn 0\n\t}\n}"
        )
        project, fix = fix_first(source)
        assert not fix.fixed
        assert fix.reason == "complex-goroutines"


class TestStrategyDefer:
    def test_figure3_four_lines(self, figure3_source):
        project, fix = fix_first(figure3_source)
        assert fix.strategy == "defer"
        assert fix.patch.changed_lines() == 4
        patched = fix.patch.apply()
        assert "defer func() {" in patched

    def test_patched_clean(self, figure3_source):
        project, fix = fix_first(figure3_source)
        patched = project.apply_fix(fix)
        assert patched.detect().bmoc.reports == []
        runs = patched.stress(entry="TestRWDialer", seeds=15, max_steps=20000)
        assert not any(r.blocked_forever for r in runs)

    def test_original_send_removed(self, figure3_source):
        project, fix = fix_first(figure3_source)
        patched = fix.patch.apply()
        # the trailing direct send is gone; only the deferred one remains
        tail = patched.split("defer func() {")[1]
        assert tail.count("stop <- struct{}{}") == 1

    def test_variable_payload_placed_after_defining_site(self):
        # §4.3 step 4: o1 sends a variable; the defer goes right after the
        # variable's definition, which dominates all returns
        source = (
            "package main\n\n"
            "func computeTotal() int {\n\treturn 41\n}\n\n"
            "func Run(fail bool) {\n\tfin := make(chan int)\n"
            "\tgo func() {\n\t\tv := <-fin\n\t\tprintln(\"got\", v)\n\t}()\n"
            "\tresult := computeTotal()\n"
            "\tif fail {\n\t\treturn\n\t}\n"
            "\tfin <- result\n}\n"
        )
        project, fix = fix_first(source)
        assert fix.strategy == "defer"
        patched = fix.patch.apply()
        lines = patched.split("\n")
        define_index = next(i for i, l in enumerate(lines) if "result := computeTotal()" in l)
        assert lines[define_index + 1].strip() == "defer func() {"
        assert project.apply_fix(fix).detect().bmoc.reports == []

    def test_variable_payload_without_dominating_definition_rejected(self):
        # the payload variable is defined on only one branch: moving the
        # send would read an undefined value on the other paths
        source = (
            "package main\n\n"
            "func Run2(fail bool) {\n\tfin := make(chan int)\n"
            "\tgo func() {\n\t\t<-fin\n\t}()\n"
            "\tif fail {\n\t\treturn\n\t}\n"
            "\tresult := 7\n\tfin <- result\n}\n"
        )
        project, fix = fix_first(source)
        assert not fix.fixed

    def test_recv_value_used_rejected(self):
        source = (
            "func size() int {\n\treturn 0\n}\n"
            "func item() int {\n\treturn 5\n}\n"
            "func run() int {\n\tn := size()\n\tdata := make(chan int, n)\n"
            "\tgo func() {\n\t\tdata <- item()\n\t}()\n"
            "\tif n > 0 {\n\t\tv := <-data\n\t\treturn v\n\t}\n\treturn 0\n}"
        )
        project, fix = fix_first(source)
        assert not fix.fixed
        assert fix.reason == "recv-value-used"


class TestStrategyStop:
    def test_figure4_stop_channel(self, figure4_source):
        project, fix = fix_first(figure4_source)
        assert fix.strategy == "stop"
        patched = fix.patch.apply()
        assert "stop := make(chan struct{})" in patched
        assert "defer close(stop)" in patched
        assert "case <-stop:" in patched
        assert 5 <= fix.patch.changed_lines() <= 16

    def test_patched_clean_and_leak_free(self, figure4_source):
        project, fix = fix_first(figure4_source)
        patched = project.apply_fix(fix)
        assert patched.detect().bmoc.reports == []
        runs = patched.stress(entry="main", seeds=15, max_steps=20000)
        assert not any(r.blocked_forever for r in runs)

    def test_stop_name_avoids_collision(self, figure4_source):
        shadowed = figure4_source.replace("func Input()", "func stop()")
        project = Project.from_source(shadowed)
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        fix = project.fix(bugs[0])
        assert fix.fixed
        assert "stopCh := make" in fix.patch.apply()


class TestDispatcher:
    def test_strategy_order_prefers_buffer(self, figure1_source):
        # Figure 1 is fixable by both I and III in principle; I wins
        project, fix = fix_first(figure1_source)
        assert fix.strategy == "buffer"

    def test_timings_recorded(self, figure1_source):
        project = Project.from_source(figure1_source, "fix.go")
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        collector = Collector()
        project.fix(bugs[0], collector=collector)
        totals = collector.stage_totals()
        assert totals["fix-preprocess"][0] == 1
        assert totals["fix-transform"][0] == 1

    def test_non_channel_bug_rejected(self):
        program = build(
            "func main() {\n\tvar mu sync.Mutex\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tmu.Lock()\n\t\tch <- 1\n\t\tmu.Unlock()\n\t}()\n"
            "\tmu.Lock()\n\t<-ch\n\tmu.Unlock()\n}"
        )
        result = detect_bmoc(program)
        mutex_bugs = result.bmoc_mutex_bugs()
        assert mutex_bugs
        gfix = GFix(program, "")
        fix = gfix.fix(mutex_bugs[0])
        assert not fix.fixed

    def test_fix_all_summary(self, figure1_source):
        project = Project.from_source(figure1_source)
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        summary = project.fix_all(bugs)
        assert len(summary.fixed()) == 1
        assert summary.by_strategy("buffer")
        assert summary.average_changed_lines() == 1.0
