"""Tests for repro.engine: sharding, budgets, caching, and the CLI surface.

The cross-cutting guarantees (full-corpus parity, the cache invalidation
matrix, crash-freedom fuzzing) live in their own modules; this one covers
the engine's moving parts directly.
"""

from __future__ import annotations

import pytest

from repro.cli import EXIT_TIMEOUT, main
from repro.detector.bmoc import AnalysisBudget, BMOCDetector, BudgetExceeded
from repro.detector.gcatch import run_gcatch
from repro.engine import (
    EngineConfig,
    ResultCache,
    DetectionEngine,
    TRADITIONAL_CHECKERS,
)
from repro.obs import Collector
from repro.report.table import TIMEOUT_MARKER, render_bug_costs
from tests.conftest import build, reference_reports

TWO_BUGS = """
func leakOne() {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	println("no receive")
}

func leakTwo() {
	done := make(chan int)
	go func() {
		done <- 2
	}()
	println("no receive either")
}

func fine() {
	ok := make(chan int, 1)
	ok <- 3
	<-ok
}
"""


def keys_of(reports):
    return sorted(
        (
            r.category,
            tuple(r.lines),
            tuple(sorted((op.kind, op.prim_label, op.line) for op in r.blocked_ops)),
            r.solver_outcome,
        )
        for r in reports
    )


def report_keys(result):
    return keys_of(result.all_reports())


class TestSharding:
    def test_engine_matches_serial_reports(self):
        program = build(TWO_BUGS)
        serial = keys_of(reference_reports(program))
        assert report_keys(run_gcatch(program)) == serial

    def test_report_order_is_deterministic_across_runs(self):
        program = build(TWO_BUGS)
        first = run_gcatch(program)
        for _ in range(3):
            again = run_gcatch(program)
            assert [r.identity() for r in again.all_reports()] == [
                r.identity() for r in first.all_reports()
            ]

    def test_shard_records_cover_primitives_and_checkers(self):
        program = build(TWO_BUGS)
        result = run_gcatch(program)
        kinds = [s.kind for s in result.shards]
        assert kinds.count("bmoc") == 3  # three channels
        assert [s.label for s in result.shards if s.kind == "traditional"] == list(
            TRADITIONAL_CHECKERS
        )

    def test_engine_stats_match_serial_effort(self):
        program = build(TWO_BUGS)
        serial = BMOCDetector(program).detect().stats
        engine = run_gcatch(program).bmoc.stats
        assert engine.channels_analyzed == serial.channels_analyzed
        assert engine.solver_calls == serial.solver_calls
        assert engine.groups_checked == serial.groups_checked
        assert engine.sat_results == serial.sat_results

    def test_engine_threads_observability(self):
        collector = Collector("engine")
        program = build(TWO_BUGS)
        result = run_gcatch(program, collector=collector)
        assert result.trace is collector
        totals = collector.stage_totals()
        assert totals["engine-shard"][0] == len(result.shards)
        assert collector.counters["engine.shards"] == len(result.shards)
        # the Figure 2 stages still show up in the merged trace
        for stage in ("callgraph", "alias", "path-enum", "solve"):
            assert stage in totals


class TestBudgets:
    def test_wall_budget_times_out_gracefully(self):
        program = build(TWO_BUGS)
        result = run_gcatch(program, EngineConfig(budget_wall_seconds=1e-9))
        timeouts = result.timed_out_shards()
        assert timeouts and all(s.kind == "bmoc" for s in timeouts)
        assert result.has_timeouts()
        assert result.bmoc.stats.analysis_timeouts == len(timeouts)
        # traditional checkers still ran: degradation, not abortion
        assert [s for s in result.shards if s.kind == "traditional"]

    def test_node_budget_times_out_and_counts(self):
        program = build(TWO_BUGS)
        collector = Collector("budget")
        result = run_gcatch(program, EngineConfig(budget_solver_nodes=1), collector=collector)
        assert result.timed_out_shards()
        assert collector.counters.get("engine.timeout", 0) >= 1

    def test_generous_budget_changes_nothing(self):
        program = build(TWO_BUGS)
        serial = run_gcatch(program)
        budgeted = run_gcatch(program, EngineConfig(budget_wall_seconds=60.0))
        assert report_keys(budgeted) == report_keys(serial)
        assert not budgeted.timed_out_shards()

    def test_budget_object_semantics(self):
        budget = AnalysisBudget(solver_nodes=10)
        budget.check()
        assert budget.per_solve_nodes() == 10
        budget.charge(10)
        with pytest.raises(BudgetExceeded):
            budget.check()


class TestWarmCache:
    def test_warm_rerun_skips_at_least_90_percent_of_solver_calls(self):
        """The ISSUE acceptance criterion, verified via obs counters."""
        program = build(TWO_BUGS)
        cache = ResultCache()
        cold = Collector("cold")
        warm = Collector("warm")
        first = run_gcatch(program, EngineConfig(cache=cache), collector=cold)
        second = run_gcatch(program, EngineConfig(cache=cache), collector=warm)
        cold_calls = cold.counters["solver.calls"]
        warm_calls = warm.counters.get("solver.calls", 0)
        assert cold_calls > 0
        assert warm_calls <= 0.1 * cold_calls
        assert warm.counters["cache.hit"] == len(second.shards)
        assert warm.counters["cache.skipped-solver-calls"] == cold_calls
        assert report_keys(second) == report_keys(first)

    def test_cached_stats_preserve_effort_accounting(self):
        program = build(TWO_BUGS)
        cache = ResultCache()
        first = run_gcatch(program, EngineConfig(cache=cache))
        second = run_gcatch(program, EngineConfig(cache=cache))
        assert second.bmoc.stats.solver_calls == first.bmoc.stats.solver_calls
        assert all(s.outcome == "cached" for s in second.shards)

    def test_disk_cache_layout_and_cross_instance_reload(self, tmp_path):
        program = build(TWO_BUGS)
        first = run_gcatch(program, EngineConfig(cache=ResultCache(str(tmp_path))))
        entries = list(tmp_path.glob("objects/*/*.pkl"))
        assert len(entries) == len(first.shards)
        # every entry sits under objects/<first two hex chars>/<sha256>.pkl
        for entry in entries:
            assert entry.parent.name == entry.stem[:2]
            assert len(entry.stem) == 64
        # a brand-new cache instance (fresh process, conceptually) hits disk
        fresh = ResultCache(str(tmp_path))
        warm = Collector("disk-warm")
        second = run_gcatch(program, EngineConfig(cache=fresh), collector=warm)
        assert warm.counters["cache.hit"] == len(first.shards)
        assert report_keys(second) == report_keys(first)

    def test_corrupt_disk_entry_is_a_miss_not_an_error(self, tmp_path):
        program = build(TWO_BUGS)
        run_gcatch(program, EngineConfig(cache=ResultCache(str(tmp_path))))
        for entry in tmp_path.glob("objects/*/*.pkl"):
            entry.write_bytes(b"not a pickle")
        fresh = ResultCache(str(tmp_path))
        result = run_gcatch(program, EngineConfig(cache=fresh))
        assert report_keys(result) == report_keys(run_gcatch(program))

    def test_timed_out_shards_are_not_cached(self):
        program = build(TWO_BUGS)
        cache = ResultCache()
        run_gcatch(program, EngineConfig(cache=cache, budget_wall_seconds=1e-9))
        retry = run_gcatch(program, EngineConfig(cache=cache))
        assert report_keys(retry) == report_keys(run_gcatch(program))


class TestTimeoutSurfacing:
    def test_render_bug_costs_marks_timeouts(self):
        program = build(TWO_BUGS)
        result = run_gcatch(program, EngineConfig(budget_wall_seconds=1e-9))
        table = render_bug_costs(
            result.all_reports(), timeouts=result.timed_out_shards()
        )
        assert TIMEOUT_MARKER in table
        assert "(budget)" in table
        clean = render_bug_costs(run_gcatch(program).all_reports())
        assert TIMEOUT_MARKER not in clean

    def test_cli_fail_on_timeout_exit_code(self, tmp_path, capsys):
        source = "package main\n" + TWO_BUGS
        target = tmp_path / "bugs.go"
        target.write_text(source)
        code = main(
            [
                "detect",
                str(target),
                "--budget-seconds",
                "0.000000001",
                "--fail-on-timeout",
            ]
        )
        assert code == EXIT_TIMEOUT
        out = capsys.readouterr().out
        assert "TIMEOUT" in out
        # without the flag the exit code reports bugs/no-bugs as usual
        code = main(["detect", str(target)])
        assert code in (0, 1)

    def test_cli_cache_dir_round_trip(self, tmp_path, capsys):
        source = "package main\n" + TWO_BUGS
        target = tmp_path / "bugs.go"
        target.write_text(source)
        cache_dir = tmp_path / "cache"
        first = main(["detect", str(target), "--cache-dir", str(cache_dir)])
        out_first = capsys.readouterr().out
        assert list(cache_dir.glob("objects/*/*.pkl"))
        second = main(["detect", str(target), "--cache-dir", str(cache_dir)])
        out_second = capsys.readouterr().out
        assert first == second
        assert out_first.splitlines()[0] == out_second.splitlines()[0]


class TestEngineDirect:
    def test_run_engine_with_config(self):
        program = build(TWO_BUGS)
        result = DetectionEngine(program, config=EngineConfig()).run()
        assert report_keys(result) == report_keys(run_gcatch(program))

    def test_engine_handles_program_without_channels(self):
        program = build("func pure() int {\n\treturn 41 + 1\n}\n")
        result = run_gcatch(program)
        assert result.all_reports() == []
        assert [s.kind for s in result.shards] == ["traditional"] * 5
