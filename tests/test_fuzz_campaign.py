"""Fuzz campaigns: determinism, triage buckets, crash isolation, CLI.

The campaign's core contract is the one the issue states as acceptance:
the triage is a *pure function of the seed* — identical across reruns —
and a crash in any generated program is an isolated bucket, never a dead
campaign.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import _fuzz_exit, main
from repro.fuzz import (
    BUCKET_AGREE,
    BUCKET_EXPLAINED,
    BUCKET_INCIDENT,
    BUCKET_PARSE_CRASH,
    BUCKET_UNEXPLAINED,
    BUCKETS,
    generate_program,
    minimize_program,
    run_campaign,
    triage_program,
)
from repro.fuzz.campaign import CampaignConfig, CampaignReport, ProgramTriage
from repro.obs import Collector, snapshot
from repro.resilience.faultinject import injected
from repro.runtime.explorer import explore
from repro.ssa.builder import build_program

SMOKE_COUNT = 25


@pytest.fixture(scope="module")
def smoke_report():
    """One seed-0 campaign shared by the read-only assertions."""
    return run_campaign(0, SMOKE_COUNT)


class TestDeterminism:
    def test_rerun_is_identical(self, smoke_report):
        again = run_campaign(0, SMOKE_COUNT)
        assert [t.to_dict() for t in again.triages] == [
            t.to_dict() for t in smoke_report.triages
        ]

    def test_seed_changes_triage(self, smoke_report):
        other = run_campaign(1, SMOKE_COUNT)
        assert [t.name for t in other.triages] != [
            t.name for t in smoke_report.triages
        ]


class TestBuckets:
    def test_every_triage_lands_in_a_bucket(self, smoke_report):
        for triage in smoke_report.triages:
            assert triage.bucket in BUCKETS

    def test_seed_zero_smoke_is_crash_free(self, smoke_report):
        buckets = smoke_report.buckets()
        assert buckets[BUCKET_PARSE_CRASH] == 0
        assert buckets[BUCKET_INCIDENT] == 0
        assert buckets[BUCKET_UNEXPLAINED] == 0
        assert not smoke_report.crashes()

    def test_population_exercises_agreement_and_explained(self, smoke_report):
        buckets = smoke_report.buckets()
        assert buckets[BUCKET_AGREE] > 0
        assert buckets[BUCKET_EXPLAINED] > 0

    def test_explained_rows_carry_a_cause(self, smoke_report):
        for triage in smoke_report.by_bucket(BUCKET_EXPLAINED):
            assert triage.explanation  # never silently explained

    def test_agreement_rate_counts_classified_programs(self, smoke_report):
        assert 0.0 < smoke_report.agreement_rate <= 1.0

    def test_json_report_shape(self, smoke_report):
        payload = smoke_report.to_json()
        assert payload["kind"] == "fuzz-campaign"
        assert payload["seed"] == 0
        assert payload["count"] == SMOKE_COUNT
        assert set(payload["buckets"]) == set(BUCKETS)
        assert payload["unexplained"] == []
        assert payload["crashes"] == []
        assert len(payload["triages"]) == SMOKE_COUNT
        json.dumps(payload)  # must be serializable as-is

    def test_render_summarizes_buckets(self, smoke_report):
        text = smoke_report.render()
        assert f"{SMOKE_COUNT} program(s)" in text
        assert "agreement rate:" in text
        assert "unexplained: 0" in text


class TestFirstLeakStop:
    """Triage reads only the dynamic verdict, and one leaking schedule
    decides it: exploration stops after the first leaking run."""

    def test_leaking_program_stops_after_its_first_leak(self):
        program = generate_program(0, 26)
        config = CampaignConfig()
        full = explore(
            build_program(program.source, program.name + ".go"),
            entry=program.entry,
            max_runs=config.max_runs,
            max_steps=config.max_steps,
            max_total_steps=config.max_total_steps,
            every_outcome=True,
        )
        first_leak = min(o.seed for o in full.leaking())
        assert 0 < first_leak < full.runs - 1
        triage = triage_program(program, config=config)
        assert triage.dynamic == "leak"
        assert triage.stopped == "first-leak"
        assert triage.runs == first_leak + 1
        assert not triage.complete
        assert triage.to_dict()["stopped"] == "first-leak"

    def test_runs_column_marks_bounds_not_first_leak_stops(self):
        report = CampaignReport(seed=0, count=2, config=CampaignConfig())
        report.triages = [
            ProgramTriage(index=0, name="bounded", bucket=BUCKET_EXPLAINED,
                          classification="static-only", dynamic="clean",
                          runs=128, stopped="max-runs"),
            ProgramTriage(index=1, name="leaked", bucket=BUCKET_UNEXPLAINED,
                          classification="dynamic-only", dynamic="leak",
                          explained=False, runs=7, stopped="first-leak"),
        ]
        text = report.render()
        assert "128+" in text
        assert " 7 " in text and "7+" not in text


class TestKnownFindings:
    """The detector-gap shapes the hunt surfaced (see
    repro.corpus.regressions for their checked-in minimal forms)."""

    def test_buffered_pump_finding_is_closed(self):
        """Once a dynamic-only FN (the hunt's buffered multi-op shape);
        the repeatable-send rule now sees the leak, so the oracles agree
        on the very program that surfaced the gap."""
        triage = triage_program(generate_program(3, 153))
        assert triage.bucket == "agree"
        assert triage.classification == "agree-bug"
        assert "bmocc_s3_pump" in triage.templates
        assert "M0:buffer-grow" in triage.mutations

    def test_dropped_close_finding_is_closed(self):
        """Once a static-only FP (dead quit arm let BMOC's witness skip
        the rescuing data arm); the dead-select-arm pruning rule no
        longer enumerates the infeasible path, so the oracles agree."""
        triage = triage_program(generate_program(8, 137))
        assert triage.bucket == "agree"
        assert triage.classification == "agree-clean"
        assert not triage.static_bug
        assert triage.templates == ("bmocc_s1_race",)
        assert triage.mutations == ("M0:drop-close",)


class TestCrashIsolation:
    def test_injected_crash_becomes_one_bucket_not_a_dead_campaign(self):
        with injected("fuzz-program@fuzz-s0-p3:raise"):
            report = run_campaign(0, 6)
        assert [t.bucket for t in report.triages].count(BUCKET_PARSE_CRASH) == 1
        assert report.triages[3].bucket == BUCKET_PARSE_CRASH
        assert "injected fault" in report.triages[3].error
        assert report.triages[3].incidents
        # the other five programs triage exactly as without the fault
        clean = run_campaign(0, 6)
        for i in (0, 1, 2, 4, 5):
            assert report.triages[i].to_dict() == clean.triages[i].to_dict()

    def test_degraded_static_verdict_is_an_incident_not_a_claim(self):
        # detection survives a solver crash behind its own firewall, but
        # a degraded static verdict must not anchor a differential claim
        with injected("solve:raise"):
            triage = triage_program(generate_program(0, 0))
        assert triage.bucket == BUCKET_INCIDENT
        assert triage.incidents
        assert not triage.classification

    @pytest.mark.parametrize(
        "times,code,bucket,incidents",
        [(1, 0, BUCKET_AGREE, 0), (2, 4, BUCKET_PARSE_CRASH, 1)],
        ids=["fault-once", "fault-twice"],
    )
    def test_program_firewall_retries_once(
        self, capsys, monkeypatch, times, code, bucket, incidents
    ):
        """A transient crash in a program's build is retried once: a fault
        that fires once is absorbed and the program triages as if nothing
        happened; one that fires twice fails the retry too and is final
        (one incident, no third attempt)."""
        monkeypatch.setenv("REPRO_FAULTS", f"fuzz-program:raise-transient:times={times}")
        assert main(["fuzz", "--seed", "0", "--count", "1", "--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        [triage] = payload["triages"]
        assert triage["bucket"] == bucket
        assert len(triage.get("incidents", [])) == incidents
        counters = payload["stats"]["counters"]
        assert counters["resilience.retry"] == 1
        assert counters.get("resilience.gave-up", 0) == incidents

    def test_campaign_counts_buckets_in_trace(self):
        collector = Collector("fuzz-test")
        report = run_campaign(0, 4, collector=collector)
        counters = snapshot(collector)["counters"]
        assert counters["fuzz.programs"] == 4
        assert report.trace is collector


class TestMinimizer:
    def test_shrinks_to_the_single_culprit_motif(self):
        program = generate_program(5, 88)  # 4 motifs, one mutated 3 ways
        reference = triage_program(program)
        minimal = minimize_program(program, reference)
        assert len(minimal.motifs) == 1
        assert minimal.motifs[0].template == "bmocc_s1_race"
        assert minimal.motifs[0].mutations == ("drop-close",)
        # the minimal recipe still reproduces the finding
        again = triage_program(minimal)
        assert again.bucket == reference.bucket
        assert again.classification == reference.classification

    def test_closed_gap_program_shrinks_past_its_old_culprit(self):
        """(3, 153) used to shrink to pump+buffer-grow — the exact recipe
        that needed the buffered-send rule. With the gap closed even the
        unmutated pump is an agreed bug, so the minimizer sheds the
        mutation too."""
        program = generate_program(3, 153)
        reference = triage_program(program)
        assert reference.bucket == BUCKET_AGREE
        minimal = minimize_program(program, reference)
        assert [m.template for m in minimal.motifs] == ["bmocc_s3_pump"]
        assert minimal.motifs[0].mutations == ()

    def test_already_minimal_recipe_is_a_fixpoint(self):
        program = generate_program(8, 137)  # 1 motif, 1 mutation
        reference = triage_program(program)
        minimal = minimize_program(program, reference)
        assert minimal.motifs == program.motifs


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(["fuzz", "--seed", "0", "--count", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement rate:" in out

    def test_json_campaign_report(self, capsys):
        code = main(["fuzz", "--seed", "0", "--count", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["kind"] == "fuzz-campaign"
        assert len(payload["triages"]) == 5
        assert "stats" in payload  # --json runs under a collector

    def test_closed_finding_exits_zero(self, capsys):
        """The once-unexplained (seed 8, index 137) program now agrees,
        so replaying it is a clean exit; the exit policy itself still
        maps unexplained findings to 1 and crashes to 2."""
        code = main(["fuzz", "--seed", "8", "--only", "137", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bucket"] == "agree"
        assert _fuzz_exit(unexplained=True, crashed=False) == 1
        assert _fuzz_exit(unexplained=True, crashed=True) == 4

    def test_only_replays_one_program(self, capsys):
        code = main(["fuzz", "--seed", "0", "--only", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "package main" in out  # the replayed source is printed

    def test_dump_dir_writes_provenance_header(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seed", "8", "--only", "137",
            "--dump-dir", str(tmp_path),
        ])
        assert code == 0  # the once-open finding now agrees
        dumped = tmp_path / "fuzz-s8-p137.go"
        text = dumped.read_text()
        assert text.startswith("// fuzz-s8-p137: generated by `repro fuzz --seed 8 --only 137`")
        assert "// recipe: bmocc_s1_race[M0 inline drop-close]" in text
        assert "package main" in text

    def test_minimize_flag_is_a_noop_on_agreed_programs(self, tmp_path, capsys):
        """Minimization only fires on unexplained findings; an agreed
        program dumps with its full original recipe untouched."""
        code = main([
            "fuzz", "--seed", "5", "--only", "88", "--minimize",
            "--dump-dir", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "fuzz-s5-p88.go").read_text()
        assert "bmocc_s1_race[M3 inline buffer-grow,buffer-shrink,drop-close]" in text
        assert "benign_compute[M0 nested]" in text  # nothing was shed

    def test_campaign_crash_exits_with_incident_code(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fuzz-program@fuzz-s0-p1:raise")
        code = main(["fuzz", "--seed", "0", "--count", "3"])
        capsys.readouterr()
        assert code == 4  # EXIT_INCIDENT: crashes trump findings
