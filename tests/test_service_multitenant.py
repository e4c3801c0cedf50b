"""Tests for multi-tenant serving: the tenant registry, cross-tenant
cache sharing, serial/concurrent result parity, and per-tenant telemetry.

The load-bearing guarantees:

* one daemon holds N resident projects; requests address them with the
  ``tenant`` field and the default tenant keeps the single-project wire
  behavior byte-for-byte;
* the result cache is shared across tenants *safely* — fingerprints are
  content-addressed (no paths, no tenant ids), so tenant B analyzing the
  same code tenant A already analyzed warm-hits the solver cache;
* running detect over the whole 49-program corpus through a 4-worker
  daemon produces byte-identical analysis results to a serial daemon;
* counters, distributions and journal records are tenant-labelled, and
  ``repro top --tenant`` filters on them.
"""

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.corpus.bugset import build_bug_set
from repro.obs import filter_records, render_top, summarize
from repro.service import AnalysisService, Request
from repro.service.protocol import INVALID_PARAMS, OVERLOADED

BUGGY = """package main

func main() {
\tch := make(chan int)
\tgo func() {
\t\tch <- 1
\t}()
}
"""

CLEAN = """package main

func main() {
\tch := make(chan int, 1)
\tch <- 1
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.go"
    path.write_text(BUGGY)
    return str(path)


def ok(response):
    assert "error" not in response, response
    return response["result"]


# -- registry & addressing --------------------------------------------------


class TestTenantRegistry:
    def test_register_then_address_by_tenant(self, buggy_file, tmp_path):
        clean = tmp_path / "b" / "clean.go"
        clean.parent.mkdir()
        clean.write_text(CLEAN)
        service = AnalysisService(buggy_file, workers=1).start()
        try:
            result = ok(
                service.call("register", {"tenant": "b", "path": str(clean)})
            )
            assert result["ok"] is True
            assert result["tenant"] == "b"
            # requests route to the tenant's own resident project
            pong = ok(service.call("ping", tenant="b"))
            assert pong["tenant"] == "b"
            assert pong["project"] == str(clean)
            assert pong["tenants"] == 2
            default_pong = ok(service.call("ping"))
            assert default_pong["tenant"] == "default"
            assert default_pong["project"] == buggy_file
            # and the two tenants see different analysis results
            assert len(ok(service.call("detect", tenant="b"))["reports"]) == 0
            assert len(ok(service.call("detect"))["reports"]) == 1
            listing = ok(service.call("tenants"))
            assert sorted(t["tenant"] for t in listing["tenants"]) == [
                "b",
                "default",
            ]
        finally:
            service.stop()

    def test_register_validation(self, buggy_file, tmp_path):
        service = AnalysisService(buggy_file, workers=1).start()
        try:
            no_path = service.call("register", {"tenant": "b"})
            assert no_path["error"]["code"] == INVALID_PARAMS
            missing = service.call(
                "register",
                {"tenant": "b", "path": str(tmp_path / "nope.go")},
            )
            assert missing["error"]["code"] == INVALID_PARAMS
            # the default tenant cannot be re-pointed at another project
            other = tmp_path / "other.go"
            other.write_text(CLEAN)
            repoint = service.call(
                "register", {"tenant": "default", "path": str(other)}
            )
            assert repoint["error"]["code"] == INVALID_PARAMS
            # a failed register leaves the registry untouched
            assert ok(service.call("ping"))["tenants"] == 1
        finally:
            service.stop()

    def test_reregister_same_path_is_a_noop(self, buggy_file, tmp_path):
        clean = tmp_path / "clean.go"
        clean.write_text(CLEAN)
        service = AnalysisService(buggy_file, workers=1).start()
        try:
            first = ok(service.call("register", {"tenant": "b", "path": str(clean)}))
            again = ok(service.call("register", {"tenant": "b", "path": str(clean)}))
            assert again == first
            assert ok(service.call("ping"))["tenants"] == 2
        finally:
            service.stop()


# -- shared cross-tenant cache ----------------------------------------------


class TestSharedCache:
    def test_cross_tenant_warm_cache(self, tmp_path):
        """Tenant B analyzing the same code tenant A already analyzed
        must warm-hit the shared cache: >=90% of shards solver-skip."""
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for d in (dir_a, dir_b):
            d.mkdir()
            (d / "main.go").write_text(BUGGY)
        service = AnalysisService(str(dir_a / "main.go"), workers=1).start()
        try:
            cold = ok(service.call("detect"))
            assert cold["shards"]["cached"] == 0
            ok(service.call("register", {"tenant": "b", "path": str(dir_b / "main.go")}))
            warm = ok(service.call("detect", tenant="b"))
            assert warm["shards"]["total"] > 0
            assert warm["shards"]["skip_rate"] >= 0.9
            assert warm["reports"] == cold["reports"]
        finally:
            service.stop()


# -- serial vs concurrent parity --------------------------------------------


def detect_parity_view(payload: dict) -> str:
    """The deterministic slice of a detect payload: analysis results,
    not wall-clock or cache-warmth accounting (those legitimately vary
    with worker interleaving)."""
    shards = payload["shards"]
    view = {
        "generation": payload["generation"],
        "reports": payload["reports"],
        "bmoc": payload["bmoc"],
        "traditional": payload["traditional"],
        "health": payload["health"],
        "code": payload["code"],
        "timed_out": payload["timed_out"],
        "shards": {
            "total": shards["total"],
            "timeout": shards["timeout"],
            "failed": shards["failed"],
        },
        "incidents": payload.get("incidents"),
    }
    return json.dumps(view, sort_keys=True)


class TestConcurrentParity:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        paths = {}
        for case in build_bug_set():
            d = root / case.case_id
            d.mkdir()
            (d / "main.go").write_text(case.source)
            paths[case.case_id] = str(d / "main.go")
        return paths

    def run_corpus(self, paths, workers):
        first = sorted(paths)[0]
        service = AnalysisService(paths[first], workers=workers).start()
        results = {}
        try:
            for case_id in sorted(paths)[1:]:
                ok(service.call("register", {"tenant": case_id, "path": paths[case_id]}))
            futures = {
                case_id: service.queue.submit(
                    Request(
                        id=case_id,
                        method="detect",
                        tenant=case_id if case_id != first else "default",
                    )
                )
                for case_id in sorted(paths)
            }
            for case_id, future in futures.items():
                results[case_id] = ok(future.result(timeout=120))
        finally:
            service.stop()
        return results

    def test_workers4_detect_matches_serial_on_corpus(self, corpus_dir):
        """The acceptance gate: 49 concurrent detects (4 workers, one
        tenant per corpus program) are byte-identical to a serial run."""
        serial = self.run_corpus(corpus_dir, workers=1)
        concurrent = self.run_corpus(corpus_dir, workers=4)
        assert sorted(serial) == sorted(concurrent)
        for case_id in sorted(serial):
            assert detect_parity_view(serial[case_id]) == detect_parity_view(
                concurrent[case_id]
            ), f"case {case_id} diverged between serial and 4-worker runs"


# -- per-tenant telemetry ----------------------------------------------------


class TestTenantTelemetry:
    def test_counters_and_dists_are_tenant_labelled(self, buggy_file, tmp_path):
        clean = tmp_path / "clean.go"
        clean.write_text(CLEAN)
        service = AnalysisService(buggy_file, workers=1).start()
        try:
            ok(service.call("register", {"tenant": "b", "path": str(clean)}))
            ok(service.call("detect"))
            ok(service.call("detect", tenant="b"))
            ok(service.call("detect", tenant="b"))
            counters = service.collector.counters
            assert counters.get("tenant.default.requests") == 2  # register + detect
            assert counters.get("tenant.b.requests") == 2
            dists = service.collector.dists
            assert dists["tenant.b.request.seconds"].count == 2
            assert dists["tenant.default.request.seconds"].count == 2
            metrics = ok(service.call("metrics"))
            assert metrics["scheduler"]["workers"] == 1
            assert metrics["tenants"] == 2
        finally:
            service.stop()

    def test_journal_records_tenant_and_sheds(self, buggy_file, tmp_path):
        clean = tmp_path / "clean.go"
        clean.write_text(CLEAN)
        journal_path = tmp_path / "journal.jsonl"
        service = AnalysisService(
            buggy_file, workers=1, journal_path=str(journal_path), max_queue=1
        ).start()
        gate, started = threading.Event(), threading.Event()
        detect = service._method_detect

        def gated_detect(params, ctx):
            if ctx.tenant.tenant_id == "default":
                started.set()
                gate.wait(timeout=5)
            return detect(params, ctx)

        try:
            ok(service.call("register", {"tenant": "b", "path": str(clean)}))
            service._method_detect = gated_detect
            running = service.queue.submit(Request(id="r", method="detect"))
            started.wait(timeout=5)  # in flight, not queued
            queued = service.queue.submit(Request(id="q", method="detect", tenant="b"))
            shed = service.call("detect", tenant="b")
            assert shed["error"]["code"] == OVERLOADED
            gate.set()
            ok(running.result(timeout=5))
            ok(queued.result(timeout=5))
            ok(service.call("detect", tenant="b"))
            assert service.tenants.maybe("b").shed == 1
            assert service.tenants.maybe("default").shed == 0
        finally:
            gate.set()
            service.stop()
        records = service.journal.read()
        detects = [r for r in records if r["method"] == "detect"]
        assert sorted(r.get("tenant") for r in detects) == ["b", "b", "b", "default"]
        only_b = filter_records(records, tenant="b")
        assert all(r["tenant"] == "b" for r in only_b)
        assert len(only_b) == 3
        summary = summarize(records)
        assert summary["sheds"] == 1
        assert summary["by_tenant"]["b"]["sheds"] == 1
        assert summary["by_tenant"]["b"]["served"] == 2
        assert summary["by_tenant"]["default"]["sheds"] == 0
        top = render_top(records)
        assert "shed rate" in top
        # the per-tenant breakdown table renders when non-default tenants exist
        assert "tenant" in top
        assert any(line.startswith("b ") for line in top.splitlines())

    def test_top_cli_tenant_filter(self, buggy_file, tmp_path, capsys):
        journal_path = tmp_path / "journal.jsonl"
        service = AnalysisService(
            buggy_file, workers=1, journal_path=str(journal_path)
        ).start()
        try:
            clean = tmp_path / "clean.go"
            clean.write_text(CLEAN)
            ok(service.call("register", {"tenant": "b", "path": str(clean)}))
            ok(service.call("detect"))
            ok(service.call("detect", tenant="b"))
        finally:
            service.stop()
        code = cli_main(
            ["top", "--journal", str(journal_path), "--tenant", "b", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary["by_tenant"]) == ["b"]
        assert summary["by_tenant"]["b"]["requests"] == 1
