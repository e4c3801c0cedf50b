"""Tests for the experiment-runner layer (repro.report.experiments)."""

import re

import pytest

from repro.corpus.apps import build_corpus, corpus_app
from repro.detector.gcatch import run_gcatch
from repro.fuzz import run_campaign
from repro.obs import Collector
from repro.service import AnalysisService
from repro.report.experiments import (
    AppEvaluation,
    ChannelVerdict,
    CorpusEvaluation,
    evaluate_app,
    evaluate_corpus,
)
from tests.conftest import split_docker_files


@pytest.fixture(scope="module")
def bbolt_eval():
    return evaluate_app(corpus_app("bbolt"))


class TestAppEvaluation:
    def test_bmoc_counts(self, bbolt_eval):
        assert bbolt_eval.bmoc_counts("bmoc-chan") == (2, 0)
        assert bbolt_eval.bmoc_counts("bmoc-mutex") == (0, 0)

    def test_traditional_counts(self, bbolt_eval):
        assert bbolt_eval.traditional_verdicts["fatal-goroutine"] == (4, 0)
        assert bbolt_eval.traditional_verdicts["forget-unlock"] == (0, 0)

    def test_fix_counts(self, bbolt_eval):
        assert bbolt_eval.fix_counts() == {"buffer": 1, "defer": 0, "stop": 1}

    def test_every_verdict_matched_to_a_seed(self, bbolt_eval):
        for verdict in bbolt_eval.bmoc_verdicts:
            assert verdict.instance is not None
            assert verdict.instance.category.startswith("bmoc")

    def test_verdict_real_flag(self, bbolt_eval):
        assert all(v.is_real for v in bbolt_eval.bmoc_verdicts)

    def test_elapsed_recorded(self, bbolt_eval):
        assert bbolt_eval.elapsed_seconds > 0


class TestCorpusEvaluation:
    @pytest.fixture(scope="class")
    def small(self):
        return evaluate_corpus(names=["bbolt", "Gin", "frp"])

    def test_subset_selection(self, small):
        # subsets preserve Table 1 row order, not request order
        assert [e.app.name for e in small.evaluations] == ["Gin", "frp", "bbolt"]

    def test_table_rows_include_total(self, small):
        rows = small.table1_rows()
        assert rows[-1]["app"] == "Total"
        assert rows[-1]["bmoc_c"] == "2(0)"

    def test_render_is_aligned_text(self, small):
        text = small.render()
        lines = text.split("\n")
        assert len({len(l) for l in lines[1:4]}) <= 2  # header/sep/rows aligned

    def test_totals_accumulate(self, small):
        totals = small.totals()
        assert totals["bmoc_c"] == (2, 0)
        assert totals["forget_unlock"] == (1, 0)  # frp's single bug

    def test_fp_causes_empty_for_fp_free_subset(self, small):
        assert small.fp_causes() == {}

    def test_fp_causes_present_for_fp_heavy_app(self):
        evaluation = evaluate_corpus(names=["Prometheus"])
        causes = evaluation.fp_causes()
        assert sum(causes.values()) == 1  # Prometheus has exactly 1 BMOC FP


class TestChannelVerdict:
    def test_fp_cause_passthrough(self):
        from repro.corpus.templates import fp_nonreadonly

        instance = fp_nonreadonly("Vx")
        verdict = ChannelVerdict(instance=instance, category="bmoc-chan")
        assert not verdict.is_real
        assert verdict.fp_cause == "infeasible-path"

    def test_unmatched_channel_counts_as_fp(self):
        verdict = ChannelVerdict(instance=None, category="bmoc-chan")
        assert not verdict.is_real
        assert verdict.fp_cause is None


class TestEffortGate:
    def test_table1_pass_does_the_pinned_work(self):
        """The 21-app ``evaluate_app`` pass does a fixed amount of work at
        every layer: a change that keeps the verdicts but analyzes more
        (or fewer) channels, combinations or solver systems shows here."""
        effort = dict.fromkeys(
            ("instrs", "channels", "combinations", "groups", "solver_calls",
             "sat", "reports", "fixes", "fixed"),
            0,
        )
        for evaluation in evaluate_corpus().evaluations:
            stats = evaluation.gcatch.bmoc.stats
            program = evaluation.app.program()
            effort["instrs"] += sum(
                len(block.instrs) for func in program for block in func.blocks
            )
            effort["channels"] += stats.channels_analyzed
            effort["combinations"] += stats.combinations
            effort["groups"] += stats.groups_checked
            effort["solver_calls"] += stats.solver_calls
            effort["sat"] += stats.sat_results
            effort["reports"] += len(evaluation.gcatch.all_reports())
            effort["fixes"] += len(evaluation.fixes)
            effort["fixed"] += len(evaluation.fixes) - len(evaluation.unfixed())
        assert effort == {
            "instrs": 9045,
            "channels": 412,
            "combinations": 1027,
            "groups": 1548,
            "solver_calls": 1548,
            "sat": 333,
            "reports": 410,
            "fixes": 147,
            "fixed": 124,
        }

    def test_table1_pass_walks_each_function_once(self):
        """The four lock checkers share one lockset pass per detect, so the
        21 apps' detects walk each of their 2,336 functions once."""
        walks = functions = 0
        for app in build_corpus():
            collector = Collector("effort")
            run_gcatch(app.program(), collector=collector)
            walks += collector.counters.get("locksets.functions", 0)
            functions += len(app.program().functions)
        assert (walks, functions) == (2336, 2336)

    def test_fuzz_triage_explores_the_pinned_work(self):
        """The first 100 seed-0 fuzz triages at ``CampaignConfig`` defaults
        make a fixed number of runs and interpreter steps. Each exploration
        stops at its first leaking run; the full search makes 5,275 runs
        and 168,227 steps. Their sched decisions build 23,255 step
        footprints (``explore.footprints``): one where a visibility check
        cannot tell from the instruction's type, one per candidate of a
        branch point and one to wake the sleep set."""
        collector = Collector("effort")
        report = run_campaign(0, 100, collector=collector)
        effort = {
            "runs": sum(t.runs for t in report.triages),
            "steps": sum(t.total_steps for t in report.triages),
            "footprints": collector.counters["explore.footprints"],
        }
        assert effort == {"runs": 2178, "steps": 61156, "footprints": 23255}

    def test_daemon_edit_loop_does_the_pinned_work(self, tmp_path):
        """A daemon serving Docker split into one file per template
        instance plus ``main.go`` (the project of the ``daemon-edit-loop``
        benchmark) plans 106 shards. A cold start-and-detect executes all
        of them, lowering and digesting all 380 functions. Giving one
        file's first channel a buffer reparses that file, lowers and
        digests only its functions (the rest are reused: the edit draws no
        register) and re-executes only the shards whose scope the edit
        touched. Every step re-executes the five traditional shards, whose
        one lockset pass walks all 380 functions."""
        files = split_docker_files()
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        channel = re.compile(r"make\(chan ([^,()]+?)(?:, *[^)]*)?\)")
        service = AnalysisService(str(tmp_path), workers=1)
        counters = service.collector.counters
        # the cold step counts from construction, so the load's digests too
        before = {}
        steps = []
        try:
            service.start()
            for edited in (None, "inst_000.go", "inst_001.go", "inst_002.go"):
                if edited is not None:
                    text = files[edited]
                    match = channel.search(text)
                    (tmp_path / edited).write_text(
                        text[: match.start()]
                        + f"make(chan {match.group(1)}, 1)"
                        + text[match.end():]
                    )
                result = service.call("detect")["result"]
                steps.append({
                    "executed": result["shards"]["executed"],
                    "total": result["shards"]["total"],
                    "reports": len(result["reports"]),
                    "reparsed": result["refresh"]["reparsed"],
                    "lowered": counters.get("ssa.lowered", 0)
                    - before.get("ssa.lowered", 0),
                    "reused": counters.get("ssa.reused", 0)
                    - before.get("ssa.reused", 0),
                    "digests": counters.get("fingerprint.digests", 0)
                    - before.get("fingerprint.digests", 0),
                    "solver_calls": counters.get("solver.calls", 0)
                    - before.get("solver.calls", 0),
                    "walks": counters.get("locksets.functions", 0)
                    - before.get("locksets.functions", 0),
                })
                before = dict(counters)
        finally:
            service.stop()
        assert steps == [
            {"executed": 106, "total": 106, "reports": 72, "reparsed": 0,
             "lowered": 380, "reused": 0, "digests": 380, "solver_calls": 395,
             "walks": 380},
            {"executed": 6, "total": 106, "reports": 71, "reparsed": 1,
             "lowered": 4, "reused": 376, "digests": 4, "solver_calls": 3,
             "walks": 380},
            {"executed": 7, "total": 106, "reports": 70, "reparsed": 1,
             "lowered": 5, "reused": 375, "digests": 5, "solver_calls": 4,
             "walks": 380},
            {"executed": 6, "total": 106, "reports": 69, "reparsed": 1,
             "lowered": 4, "reused": 376, "digests": 4, "solver_calls": 3,
             "walks": 380},
        ]
