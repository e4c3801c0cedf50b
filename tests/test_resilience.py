"""Unit tests for repro.resilience: fault plans, the firewall and its
one retry at every site, incidents, health classification, cache
quarantine, validation downgrades and the CLI exit-code policy."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import EXIT_INCIDENT, main
from repro.detector.gcatch import run_gcatch
from repro.engine import EngineConfig
from repro.obs import Collector
from repro.resilience import (
    CORRUPT,
    FAULT_SITES,
    FaultInjected,
    FaultPlan,
    Firewall,
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_OK,
    Incident,
    injected,
    is_transient,
    make_incident,
    maybe_fault,
    overall_health,
)
from tests.conftest import build

LEAK_TWO = """
func leakOne() {
	alpha := make(chan int)
	go func() {
		alpha <- 1
	}()
}

func leakTwo() {
	bravo := make(chan int)
	go func() {
		bravo <- 2
	}()
}

func main() {
	leakOne()
	leakTwo()
}
"""


# -- fault-plan parsing ------------------------------------------------------


class TestFaultPlanParsing:
    def test_simple_rule(self):
        plan = FaultPlan.parse("solve:raise")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.site == "solve" and rule.mode == "raise" and rule.label == ""

    def test_default_mode_is_raise(self):
        assert FaultPlan.parse("parse").rules[0].mode == "raise"

    def test_label_and_options(self):
        rule = FaultPlan.parse("encode@alpha:raise-transient:n=3:times=2").rules[0]
        assert rule.site == "encode"
        assert rule.label == "alpha"
        assert rule.mode == "raise-transient"
        assert rule.n == 3 and rule.times == 2

    def test_multiple_rules(self):
        plan = FaultPlan.parse("solve:raise; cache-read:corrupt")
        assert [r.site for r in plan.rules] == ["solve", "cache-read"]

    def test_unknown_site_names_valid_set(self):
        with pytest.raises(ValueError, match="valid sites"):
            FaultPlan.parse("warp:raise")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="valid modes"):
            FaultPlan.parse("solve:explode")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("solve:raise:q=1")

    @pytest.mark.parametrize("spec", ["solve:raise:p=0.5", "encode:raise:ms=25"])
    def test_deleted_options_are_rejected(self, spec):
        with pytest.raises(ValueError, match=r"unknown fault option .* \(n/times\)$"):
            FaultPlan.parse(spec)

    def test_stall_mode_is_rejected(self):
        with pytest.raises(
            ValueError, match="valid modes: raise, raise-transient, corrupt$"
        ):
            FaultPlan.parse("encode:stall")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            FaultPlan.parse(" ; ")

    def test_all_documented_sites_parse(self):
        for site in FAULT_SITES:
            assert FaultPlan.parse(f"{site}:raise").rules[0].site == site


# -- fault-plan firing -------------------------------------------------------


class TestFaultPlanFiring:
    def test_raise_fires_with_site_and_label(self):
        plan = FaultPlan.parse("solve:raise")
        with pytest.raises(FaultInjected) as exc:
            plan.fire("solve", "chan@f:1:alpha")
        assert exc.value.site == "solve"
        assert exc.value.label == "chan@f:1:alpha"
        assert not exc.value.transient

    def test_label_substring_filter(self):
        plan = FaultPlan.parse("solve@alpha:raise")
        assert plan.fire("solve", "chan@f:1:bravo") is None
        with pytest.raises(FaultInjected):
            plan.fire("solve", "chan@f:1:alpha")

    def test_other_sites_unaffected(self):
        plan = FaultPlan.parse("solve:raise")
        assert plan.fire("encode", "x") is None

    def test_nth_call_only(self):
        plan = FaultPlan.parse("solve:raise:n=2")
        assert plan.fire("solve", "u") is None
        with pytest.raises(FaultInjected):
            plan.fire("solve", "u")
        assert plan.fire("solve", "u") is None

    def test_counts_are_per_label(self):
        # each unit counts its own calls: n=1 fires once for EVERY label,
        # so a shard degrades the same whatever else the run analyzes
        plan = FaultPlan.parse("solve:raise:n=1")
        with pytest.raises(FaultInjected):
            plan.fire("solve", "alpha")
        with pytest.raises(FaultInjected):
            plan.fire("solve", "bravo")

    def test_times_bounds_total_fires(self):
        plan = FaultPlan.parse("solve:raise-transient:times=1")
        with pytest.raises(FaultInjected) as exc:
            plan.fire("solve", "u")
        assert exc.value.transient
        assert plan.fire("solve", "u") is None

    def test_corrupt_returns_sentinel(self):
        plan = FaultPlan.parse("cache-read:corrupt")
        assert plan.fire("cache-read", "k") == CORRUPT

    def test_maybe_fault_noop_without_plan(self):
        assert maybe_fault("solve", "anything") is False

    def test_injected_scopes_activation(self):
        with injected("solve:corrupt"):
            assert maybe_fault("solve", "u") is True
        assert maybe_fault("solve", "u") is False


# -- firewall ----------------------------------------------------------------


class TestFirewall:
    def test_ok_call_passes_value(self):
        fw = Firewall()
        guarded = fw.call(lambda: 42, site="shard")
        assert guarded.ok and guarded.value == 42 and not fw.incidents

    def test_crash_becomes_incident(self):
        collector = Collector()
        fw = Firewall(collector=collector)
        guarded = fw.call(lambda: 1 / 0, site="shard", label="alpha")
        assert not guarded.ok
        incident = guarded.incident
        assert incident.site == "shard" and incident.label == "alpha"
        assert incident.exception == "ZeroDivisionError"
        assert len(incident.digest) == 12
        assert fw.incidents == [incident]
        assert collector.counters["resilience.incident"] == 1

    def test_transient_crash_retries_then_succeeds(self):
        collector = Collector()
        fw = Firewall(collector=collector)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("disk hiccup")
            return "fine"

        guarded = fw.call(flaky, site="cache-read")
        assert guarded.ok and guarded.value == "fine"
        assert len(calls) == 2
        assert collector.counters["resilience.retry"] == 1
        assert "resilience.gave-up" not in collector.counters

    def test_retries_exhausted_counts_gave_up(self):
        collector = Collector()
        fw = Firewall(collector=collector)

        def always(): raise EOFError("truncated")

        guarded = fw.call(always, site="cache-read")
        assert not guarded.ok
        assert guarded.incident.attempts == 2
        assert guarded.incident.transient
        assert collector.counters["resilience.retry"] == 1
        assert collector.counters["resilience.gave-up"] == 1

    def test_nontransient_never_retried(self):
        fw = Firewall()
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("logic error")

        assert not fw.call(boom, site="shard").ok
        assert len(calls) == 1

    def test_reraise_passthrough(self):
        fw = Firewall()
        with pytest.raises(KeyError):
            fw.call(lambda: (_ for _ in ()).throw(KeyError("x")), site="s",
                    reraise=(KeyError,))

    def test_injected_transient_fault_is_retryable(self):
        assert is_transient(FaultInjected("solve", transient=True))
        assert not is_transient(FaultInjected("solve"))


# -- incidents and health ----------------------------------------------------


class TestIncidents:
    def test_fault_site_overrides_firewall_site(self):
        # a fault injected at 'solve' is reported at 'solve' even when the
        # shard-level firewall is what caught it
        try:
            raise FaultInjected("solve", "alpha")
        except FaultInjected as exc:
            incident = make_incident("shard", "alpha", exc)
        assert incident.site == "solve"

    def test_digest_stable_across_raises(self):
        def crash():
            try:
                raise ValueError("boom")
            except ValueError as exc:
                return make_incident("shard", "u", exc)

        assert crash().digest == crash().digest

    def test_message_truncated(self):
        try:
            raise ValueError("x" * 500)
        except ValueError as exc:
            incident = make_incident("shard", "u", exc)
        assert len(incident.message) == 200

    def test_incident_is_picklable(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            incident = make_incident("shard", "u", exc)
        clone = pickle.loads(pickle.dumps(incident))
        assert clone == incident

    def test_health_classification(self):
        crash = Incident("shard", "u", "ValueError", "boom", "0" * 12)
        assert overall_health([], 5, 0) == HEALTH_OK
        assert overall_health([crash], 5, 1) == HEALTH_DEGRADED
        assert overall_health([crash], 5, 5) == HEALTH_FAILED
        assert overall_health([crash], 0, 0) == HEALTH_FAILED
        assert overall_health([crash], None, 0) == HEALTH_FAILED


# -- cache quarantine (satellite a) ------------------------------------------


class TestCacheQuarantine:
    def _warm(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        program = build(LEAK_TWO)
        run_gcatch(program, EngineConfig(cache=cache))
        return cache, program

    def test_corrupt_entry_quarantined_on_read(self, tmp_path):
        cache, program = self._warm(tmp_path)
        paths = sorted((tmp_path / "cache").rglob("*.pkl"))
        assert paths
        paths[0].write_bytes(b"not a pickle at all")
        fresh_cache = type(cache)(str(tmp_path / "cache"))
        result = run_gcatch(program, EngineConfig(cache=fresh_cache))
        # the corrupted entry was quarantined (deleted), the shard
        # re-analyzed, and the fresh result stored back at the same key
        assert fresh_cache.corrupt == 1
        assert result.health() == HEALTH_OK
        assert len(result.bmoc.reports) == 2
        pickle.loads(paths[0].read_bytes())  # rewritten entry is valid again

    def test_wrong_payload_type_quarantined(self, tmp_path):
        cache, program = self._warm(tmp_path)
        paths = sorted((tmp_path / "cache").rglob("*.pkl"))
        paths[0].write_bytes(pickle.dumps({"not": "a CachedShard"}))
        fresh_cache = type(cache)(str(tmp_path / "cache"))
        result = run_gcatch(program, EngineConfig(cache=fresh_cache))
        assert fresh_cache.corrupt == 1
        assert result.health() == HEALTH_OK

    def test_injected_read_corruption_counts_and_recovers(self, tmp_path):
        cache, program = self._warm(tmp_path)
        fresh_cache = type(cache)(str(tmp_path / "cache"))
        collector = Collector()
        with injected("cache-read:raise"):
            result = run_gcatch(
                program, EngineConfig(cache=fresh_cache), collector=collector
            )
        # every probe failed => every shard re-ran: zero lost reports,
        # though each failed probe is recorded as a cache-read incident
        assert len(result.bmoc.reports) == 2
        assert result.health() == HEALTH_DEGRADED
        assert all(i.site == "cache-read" for i in result.incidents)
        # a probe that raises is neither a hit nor a miss
        assert "cache.hit" not in collector.counters
        assert "cache.miss" not in collector.counters

    def test_injected_write_failure_is_incident_not_abort(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        program = build(LEAK_TWO)
        with injected("cache-write:raise"):
            result = run_gcatch(program, EngineConfig(cache=cache))
        assert len(result.bmoc.reports) == 2
        assert result.health() == HEALTH_DEGRADED
        assert all(i.site == "cache-write" for i in result.incidents)


# -- serial firewall behaviour -----------------------------------------------


class TestSerialResilience:
    def test_single_channel_crash_degrades_not_aborts(self):
        program = build(LEAK_TWO)
        collector = Collector()
        with injected("solve@alpha:raise"):
            result = run_gcatch(program, collector=collector)
        assert result.health() == HEALTH_DEGRADED
        assert len(result.bmoc.reports) == 1
        assert "bravo" in result.bmoc.reports[0].description
        assert result.incidents[0].site == "solve"
        assert collector.counters["resilience.incident"] == 1

    def test_detect_init_crash_is_failed_run(self):
        program = build(LEAK_TWO)
        # faulting every encode kills every channel shard; the checkers
        # survive, so the run degrades instead of failing
        with injected("encode:raise"):
            result = run_gcatch(program)
        assert result.health() == HEALTH_DEGRADED
        assert not result.bmoc.reports
        assert [s.kind for s in result.failed_shards()] == ["bmoc", "bmoc"]

    def test_parse_fault_fires(self):
        from repro.golang.parser import parse_file

        with injected("parse:raise"):
            with pytest.raises(FaultInjected):
                parse_file("package main\nfunc main() {}\n", "x.go")

    def test_ssa_build_fault_fires(self):
        from repro.ssa.builder import build_program

        with injected("ssa-build:raise"):
            with pytest.raises(FaultInjected):
                build_program("package main\nfunc main() {}\n", "x.go")

    def test_transient_solve_fault_retried_to_success(self):
        program = build(LEAK_TWO)
        collector = Collector()
        with injected("solve@alpha:raise-transient:times=1"):
            result = run_gcatch(program, collector=collector)
        # one transient crash, one retry, full report set
        assert result.health() == HEALTH_OK
        assert len(result.bmoc.reports) == 2
        assert collector.counters["resilience.retry"] == 1


# -- one retry at every firewall ---------------------------------------------


class TestOneRetryEverywhere:
    """Every firewall retries a transient failure exactly once: a fault
    that fires once is absorbed by the retry, and a fault that fires
    twice fails the retry too and becomes one incident of two attempts."""

    @pytest.fixture
    def incidents_at(self, tmp_path, figure1_source):
        from repro.api import Project
        from repro.engine import ResultCache
        from repro.fixer.validate import validate_patch
        from repro.fuzz import generate_program, triage_program
        from repro.service import AnalysisService

        def solve(spec):
            with injected(spec):
                return run_gcatch(build(LEAK_TWO)).incidents

        def cache_read(spec):
            program = build(LEAK_TWO)
            run_gcatch(program, EngineConfig(cache=ResultCache(str(tmp_path / "cache"))))
            cold = ResultCache(str(tmp_path / "cache"))
            with injected(spec):
                return run_gcatch(program, EngineConfig(cache=cold)).incidents

        def fuzz_program(spec):
            with injected(spec):
                return triage_program(generate_program(0, 0)).incidents

        def service_request(spec):
            path = tmp_path / "leaky.go"
            path.write_text("package main\n" + LEAK_TWO)
            service = AnalysisService(str(path), workers=1).start()
            try:
                with injected(spec):
                    service.call("detect")
                return service.firewall.incidents
            finally:
                service.stop()

        def fix_apply(spec):
            project = Project.from_source(figure1_source, "figure1.go")
            [bug] = project.detect().bmoc.bmoc_channel_bugs()
            with injected(spec):
                return project.fix(bug).incidents

        def validate(spec):
            project = Project.from_source(figure1_source, "figure1.go")
            [bug] = project.detect().bmoc.bmoc_channel_bugs()
            fix = project.fix(bug)
            with injected(spec):
                incident = validate_patch(figure1_source, fix, entry="main").incident
            return [incident] if incident else []

        return {
            "solve": solve,
            "cache-read": cache_read,
            "fuzz-program": fuzz_program,
            "service-request": service_request,
            "fix-apply": fix_apply,
            "validate": validate,
        }

    @pytest.mark.parametrize(
        "site",
        ["solve", "cache-read", "fuzz-program", "service-request", "fix-apply", "validate"],
    )
    def test_a_transient_fault_is_retried_exactly_once(self, incidents_at, site):
        drive = incidents_at[site]
        assert drive(f"{site}:raise-transient:times=1") == []
        [incident] = drive(f"{site}:raise-transient:times=2")
        assert (incident.site, incident.attempts, incident.transient) == (site, 2, True)


LEAK_FOUR = """
func leakAlpha() {
	alpha := make(chan int)
	go func() {
		alpha <- 1
	}()
}

func leakBravo() {
	bravo := make(chan int)
	go func() {
		bravo <- 2
	}()
}

func leakCharlie() {
	charlie := make(chan int)
	go func() {
		charlie <- 3
	}()
}

func leakDelta() {
	delta := make(chan int)
	go func() {
		delta <- 4
	}()
}

func main() {
	leakAlpha()
	leakBravo()
	leakCharlie()
	leakDelta()
}
"""


class TestIncidentLedger:
    def test_probe_incidents_first_then_shard_order(self, tmp_path):
        """One disk-cached run: the cache probes run before any shard, so
        their incidents lead the ledger; shard crashes and cache-write
        failures follow in shard-index order, whichever kind they are."""
        from repro.engine import DetectionEngine, ResultCache

        program = build(LEAK_FOUR)
        plan = DetectionEngine(program).plan()
        alpha, bravo, charlie, delta = plan[:4]
        for name, shard in zip(("alpha", "bravo", "charlie", "delta"), plan):
            assert shard.kind == "bmoc" and name in shard.label
        faults = ";".join([
            f"cache-read@{bravo.fingerprint}:raise",
            "solve@charlie:raise",
            f"cache-write@{alpha.fingerprint}:raise",
            f"cache-write@{delta.fingerprint}:raise",
        ])
        cache = ResultCache(str(tmp_path / "cache"))
        with injected(faults):
            result = run_gcatch(program, EngineConfig(cache=cache))
        assert [(i.site, i.label) for i in result.incidents] == [
            ("cache-read", bravo.label),
            ("cache-write", alpha.label),
            ("solve", charlie.label),
            ("cache-write", delta.label),
        ]
        # the failed probe re-ran bravo; only charlie's reports are lost
        assert [s.outcome for s in result.shards[:4]] == ["ok", "ok", "failed", "ok"]
        assert len(result.bmoc.reports) == 3


# -- the lock checkers' shared lockset pass ----------------------------------


LOCK_CHECKERS = ("forget-unlock", "double-lock", "conflict-lock", "struct-race")


def renders(reports):
    return [report.render() for report in reports]


class TestSharedLocksetPass:
    """gRPC's detect has BMOC, fatal-goroutine and lock-checker reports."""

    def test_a_walk_that_raises_fails_each_lock_shard_on_its_own(self, monkeypatch):
        from repro.corpus.apps import corpus_app
        from repro.detector.traditional import locksets

        program = corpus_app("gRPC").program()
        clean = run_gcatch(program)
        real = locksets.walk_function
        raised = []

        def walk(func, alias):
            if func.name == "main":
                raised.append(func.name)
                raise RuntimeError("walk failed on main")
            return real(func, alias)

        monkeypatch.setattr(locksets, "walk_function", walk)
        collector = Collector()
        result = run_gcatch(program, collector=collector)
        assert [(s.label, s.outcome) for s in result.shards if s.kind == "traditional"] == [
            *((name, "failed") for name in LOCK_CHECKERS),
            ("fatal-goroutine", "ok"),
        ]
        assert {s.outcome for s in result.shards if s.kind == "bmoc"} == {"ok"}
        assert renders(result.bmoc.reports) == renders(clean.bmoc.reports)
        fatal = [r for r in clean.traditional if r.category == "fatal-goroutine"]
        assert len(fatal) == 2
        assert renders(result.traditional) == renders(fatal)
        # one shard incident per lock checker, as when each walked for
        # itself; the digest hashes traceback frames, so it is left out
        assert [
            (i.site, i.label, i.exception, i.message, i.attempts, i.transient)
            for i in result.incidents
        ] == [
            ("shard", name, "RuntimeError", "walk failed on main", 1, False)
            for name in LOCK_CHECKERS
        ]
        # a pass that raises is not kept: each lock shard walked again
        assert len(raised) == 4
        assert "locksets.functions" not in collector.counters
        monkeypatch.undo()
        collector = Collector()
        again = run_gcatch(program, collector=collector)
        assert collector.counters["locksets.functions"] == len(program.functions)
        assert renders(again.all_reports()) == renders(clean.all_reports())

    def test_checkers_read_the_shared_pass_without_mutating_it(self):
        from repro.corpus.apps import corpus_app
        from repro.detector.bmoc import BMOCDetector
        from repro.detector.traditional import TRADITIONAL_CHECKERS, run_checker

        program = corpus_app("gRPC").program()
        collector = Collector()
        detector = BMOCDetector(program, collector=collector)

        def run_all():
            return [
                renders(run_checker(name, program, detector))
                for name in TRADITIONAL_CHECKERS
            ]

        first = run_all()
        assert sum(map(len, first)) == 5
        assert run_all() == first
        assert collector.counters["locksets.functions"] == len(program.functions)


# -- fixer + validation resilience (satellite c) -----------------------------


class TestFixerResilience:
    def test_strategy_crash_falls_through(self, figure1_source):
        from repro.api import Project

        project = Project.from_source(figure1_source, "figure1.go")
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        assert bugs
        with injected("fix-apply@buffer:raise"):
            fix = project.fix(bugs[0])
        # buffer (the paper's strategy for Figure 1) crashed; the incident
        # is on the result and the dispatcher moved on without raising
        assert any(i.site == "fix-apply" and "buffer" in i.label
                   for i in fix.incidents)

    def test_clean_fix_has_no_incidents(self, figure1_source):
        from repro.api import Project

        project = Project.from_source(figure1_source, "figure1.go")
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        fix = project.fix(bugs[0])
        assert fix.fixed and not fix.incidents

    def test_validate_crash_is_incident(self, figure1_source):
        from repro.api import Project
        from repro.fixer.validate import validate_patch

        project = Project.from_source(figure1_source, "figure1.go")
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        fix = project.fix(bugs[0])
        assert fix.fixed
        with injected("validate:raise"):
            validation = validate_patch(figure1_source, fix, entry="main")
        assert validation.incident is not None
        assert validation.incident.site == "validate"
        assert not validation.correct
        assert "ERROR" in validation.render()

    def test_downgrade_record(self):
        from repro.fixer.validate import ValidationDowngrade

        downgrade = ValidationDowngrade(which="patched", max_runs=64, seeds=8)
        assert "patched" in downgrade.reason
        assert "64" in downgrade.reason and "8" in downgrade.reason


# -- CLI exit-code policy ----------------------------------------------------


class TestCLIPolicy:
    @pytest.fixture
    def leaky_file(self, tmp_path):
        path = tmp_path / "leaky.go"
        path.write_text("package main\n" + LEAK_TWO)
        return str(path)

    def test_default_mode_reports_degraded_exit_unchanged(self, leaky_file, capsys):
        code = main(["detect", leaky_file, "--faults", "solve@alpha:raise"])
        out = capsys.readouterr().out
        assert code == 1  # bravo's bug still found
        assert "health: degraded" in out
        assert "FaultInjected" in out

    def test_strict_mode_flips_exit_to_incident(self, leaky_file, capsys):
        assert main(["detect", leaky_file, "--faults", "solve@alpha:raise",
                     "--strict"]) == EXIT_INCIDENT

    def test_clean_run_unaffected_by_strict(self, leaky_file):
        assert main(["detect", leaky_file, "--strict"]) == 1
        assert main(["detect", leaky_file]) == 1

    def test_env_faults_honoured(self, leaky_file, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "solve@alpha:raise")
        assert main(["detect", leaky_file, "--strict"]) == EXIT_INCIDENT
        # main() deactivates the plan on exit
        from repro.resilience import active_plan

        assert active_plan() is None

    def test_stats_degrades_by_default_and_strict_exits_incident(self, leaky_file):
        assert main(["stats", leaky_file, "--faults", "solve@alpha:raise"]) == 0
        assert main(["stats", leaky_file, "--faults", "solve@alpha:raise",
                     "--strict"]) == EXIT_INCIDENT

    def test_stats_json_incidents_block(self, leaky_file, capsys):
        code = main(["stats", leaky_file, "--json",
                     "--faults", "solve@alpha:raise"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema"] == "repro.obs/2"
        assert payload["health"] == "degraded"
        [incident] = payload["incidents"]
        assert incident["site"] == "solve"
        assert incident["exception"] == "FaultInjected"

    def test_stats_json_clean_omits_incidents(self, leaky_file, capsys):
        main(["stats", leaky_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"] == "ok"
        assert "incidents" not in payload

    def test_fix_strict_exit_on_strategy_crash(self, leaky_file):
        # both strategies' crashes (per channel) surface; strict exits 4
        code = main(["fix", leaky_file, "--faults", "fix-apply:raise",
                     "--strict"])
        assert code == EXIT_INCIDENT

    def test_render_health_table(self):
        from repro.report.table import render_health

        crash = Incident("solve", "alpha", "ValueError", "boom", "abc123def456")
        out = render_health("degraded", [crash])
        assert "health: degraded" in out
        assert "alpha" in out and "abc123def456" in out
        assert render_health("ok") == "health: ok"


# -- per-primitive budget degradation ----------------------------------------

# alpha and gamma each leak cheaply (one two-node solve); bravo's two
# senders need three solves and more nodes than the per-primitive budget
# below allows, so bravo — and only bravo — exhausts its budget mid-primitive
MIXED_COST = """
func leakCheap() {
	alpha := make(chan int)
	go func() {
		alpha <- 1
	}()
}

func hungry() {
	bravo := make(chan int)
	go func() {
		bravo <- 1
	}()
	go func() {
		bravo <- 2
	}()
}

func leakCheapToo() {
	gamma := make(chan int)
	go func() {
		gamma <- 1
	}()
}

func main() {
	leakCheap()
	hungry()
	leakCheapToo()
}
"""


class TestBudgetTimeoutDegradation:
    """A per-primitive budget exhausted part-way through a primitive's
    groups must TIMEOUT only that primitive, keep every sibling's results,
    and leave the run degraded — never failed."""

    def test_midbatch_budget_timeout_keeps_siblings(self):
        program = build(MIXED_COST)
        result = run_gcatch(program, EngineConfig(budget_solver_nodes=4))
        timeouts = result.timed_out_shards()
        assert len(timeouts) == 1 and "bravo" in timeouts[0].label
        labels = {r.primitive.site.label for r in result.bmoc.reports}
        assert labels == {"alpha", "gamma"}  # siblings kept
        assert result.bmoc.stats.analysis_timeouts == 1
        assert result.health() != HEALTH_FAILED

    def test_timeout_plus_crash_degrades_not_fails(self):
        """The full degradation ladder in one run: bravo exhausts its
        budget (TIMEOUT), gamma's solve crashes (incident), and alpha's
        report still ships under ``degraded`` health."""
        program = build(MIXED_COST)
        with injected("solve@gamma:raise"):
            result = run_gcatch(program, EngineConfig(budget_solver_nodes=4))
        assert result.health() == HEALTH_DEGRADED
        assert any("bravo" in s.label for s in result.timed_out_shards())
        assert any("gamma" in s.label for s in result.failed_shards())
        assert {r.primitive.site.label for r in result.bmoc.reports} == {"alpha"}
