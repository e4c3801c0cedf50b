"""Chaos suite: deterministic fault injection into detection and serving.

The resilience contract under test: a single-site fault loses *at most*
the faulted analysis unit — every other unit's report is byte-identical
to the fault-free run — cache faults never lose a report, and an
injected crash in one tenant's daemon request stays with that tenant.
"""

from __future__ import annotations

import pytest

from repro.cli import EXIT_INCIDENT, main
from repro.detector.gcatch import run_gcatch
from repro.engine import EngineConfig, ResultCache
from repro.resilience import HEALTH_DEGRADED, HEALTH_OK, injected
from tests.conftest import build

TWO_LEAKS = """
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

CLEAN = """
func main() {
	done := make(chan int, 1)
	go func() {
		done <- 1
	}()
	<-done
}
"""

#: single-site fault plans targeting only the alpha channel's unit
ALPHA_FAULTS = [
    pytest.param("encode@alpha:raise", "encode", id="encode"),
    pytest.param("solve@alpha:raise", "solve", id="solve"),
]


def _renders(result):
    return {r.description: r.render() for r in result.all_reports()}


@pytest.fixture(scope="module")
def program():
    return build(TWO_LEAKS, "chaos.go")


@pytest.fixture(scope="module")
def baseline(program):
    return run_gcatch(program)


class TestSingleSiteFaultParity:
    """Fault one unit; assert blast radius == that unit."""

    @pytest.mark.parametrize("spec,site", ALPHA_FAULTS)
    def test_only_faulted_shard_lost(self, program, baseline, spec, site):
        with injected(spec):
            result = run_gcatch(program)
        assert result.health() == HEALTH_DEGRADED
        # exactly the alpha unit is gone; bravo's report is byte-identical
        survivors = _renders(result)
        expected = {
            desc: render
            for desc, render in _renders(baseline).items()
            if "alpha" not in desc
        }
        assert survivors == expected
        [incident] = result.incidents
        assert incident.site == site
        assert "alpha" in incident.label
        assert incident.exception == "FaultInjected"

    def test_checker_fault_spares_bmoc(self, program, baseline):
        # crash every BMOC unit; the five traditional checkers still run
        with injected("solve:raise"):
            result = run_gcatch(program)
        assert result.health() == HEALTH_DEGRADED
        assert not result.bmoc.reports
        assert len(result.incidents) == 2  # one per channel


class TestCacheFaultParity:
    """Cache faults never lose reports: a bad read is a re-analysis, a bad
    write is an incident on an otherwise complete run."""

    def test_corrupt_read_recovers_fully(self, program, baseline, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_gcatch(program, EngineConfig(cache=cache))  # warm
        fresh = ResultCache(str(tmp_path / "cache"))
        with injected("cache-read:corrupt"):
            result = run_gcatch(program, EngineConfig(cache=fresh))
        assert _renders(result) == _renders(baseline)
        assert result.health() == HEALTH_OK
        assert fresh.corrupt >= 1  # quarantined, then re-analyzed

    def test_write_failure_keeps_all_reports(self, program, baseline, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with injected("cache-write:raise"):
            result = run_gcatch(program, EngineConfig(cache=cache))
        assert _renders(result) == _renders(baseline)
        assert result.health() == HEALTH_DEGRADED
        assert all(i.site == "cache-write" for i in result.incidents)

    def test_injected_corrupt_write_quarantined_next_run(
        self, program, baseline, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        with injected("cache-write:corrupt"):
            run_gcatch(program, EngineConfig(cache=cache))
        # the corrupt-mode write left garbage entries on disk; the next
        # (fault-free) run quarantines them and re-analyzes cleanly
        fresh = ResultCache(str(tmp_path / "cache"))
        result = run_gcatch(program, EngineConfig(cache=fresh))
        assert _renders(result) == _renders(baseline)
        assert result.health() == HEALTH_OK
        assert fresh.corrupt >= 1


class TestTransientRecovery:
    def test_transient_fault_retried_to_full_result(self, program, baseline):
        with injected("solve@alpha:raise-transient:times=1"):
            result = run_gcatch(program)
        assert result.health() == HEALTH_OK
        assert _renders(result) == _renders(baseline)

    def test_fault_outlasting_the_retry_degrades(self, program):
        # the fault fires on the first attempt and on the one retry
        with injected("solve@alpha:raise-transient:times=2"):
            result = run_gcatch(program)
        assert result.health() == HEALTH_DEGRADED
        assert len(result.bmoc.reports) == 1
        [incident] = result.incidents
        assert (incident.site, incident.attempts) == ("solve", 2)


class TestStrictFlip:
    """Acceptance criterion: on a clean program, --strict flips exit 0 → 4
    under injection while the default mode stays 0 (degraded, partial)."""

    @pytest.fixture
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.go"
        path.write_text("package main\n" + CLEAN)
        return str(path)

    def test_clean_program_exits_zero(self, clean_file):
        assert main(["detect", clean_file]) == 0

    @pytest.mark.parametrize("spec", ["solve:raise", "encode:raise"])
    def test_default_stays_zero_strict_flips_to_four(self, clean_file, spec, capsys):
        assert main(["detect", clean_file, "--faults", spec]) == 0
        out = capsys.readouterr().out
        assert "health: degraded" in out
        assert main(["detect", clean_file, "--faults", spec,
                     "--strict"]) == EXIT_INCIDENT


class TestAdmissionChaos:
    """An injected crash in one tenant's request must become a structured
    incident on *that tenant's* response while the daemon keeps serving
    other tenants."""

    BUGGY = (
        "package main\n\nfunc main() {\n\tch := make(chan int)\n"
        "\tgo func() {\n\t\tch <- 1\n\t}()\n}\n"
    )

    @pytest.fixture
    def two_tenant_service(self, tmp_path):
        from repro.service import AnalysisService

        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            (d / "main.go").write_text(self.BUGGY)
        service = AnalysisService(str(tmp_path / "a" / "main.go"), workers=1).start()
        response = service.call(
            "register", {"tenant": "b", "path": str(tmp_path / "b" / "main.go")}
        )
        assert "error" not in response, response
        yield service
        service.stop()

    @pytest.mark.parametrize("site", ["service-request"])
    def test_injected_crash_isolated_to_faulted_tenant(
        self, two_tenant_service, site
    ):
        service = two_tenant_service
        # fault labels are '<tenant>:<method>'; 'b' matches only tenant b
        with injected(f"{site}@b:raise:times=1"):
            crashed = service.call("detect", tenant="b")
            assert crashed["error"]["incident"]["site"] == site
            # other tenants are served while the fault plan is active
            assert "result" in service.call("detect")
        # the faulted tenant recovers once the fault is exhausted
        assert "result" in service.call("detect", tenant="b")
        # the crash is on the incident ledger: health reports degraded
        health = service.call("health")["result"]
        assert health["health"] == "degraded"
        assert health["incidents"] >= 1
        assert any(i.site == site for i in service.firewall.incidents)
