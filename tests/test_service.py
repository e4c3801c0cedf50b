"""Tests for the analysis service: protocol, queue, resident project
state, the daemon's methods, crash isolation, and the transports.

The daemon's contract under test:

* the wire protocol rejects garbage with the right error codes and
  never turns a malformed line into a dead connection;
* with one worker, requests run strictly FIFO, and a request that waits
  out its deadline in the queue is answered with DEADLINE_EXCEEDED
  without running;
* a crash inside a request becomes a structured incident on *that
  request's* error response — the daemon keeps serving afterwards;
* the daemon's exit-code policy (``exit_code_for``) is the CLI's.
"""

import socket
import threading
import time

import pytest

from repro.resilience.faultinject import injected
from repro.service import (
    AnalysisService,
    FairScheduler,
    ProjectState,
    Request,
    ServiceClient,
    ServiceConnectionError,
    decode_request,
    encode_line,
    exit_code_for,
    serve_stdio,
    serve_tcp,
)
from repro.service.protocol import (
    DEADLINE_EXCEEDED,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    PROTOCOL_VERSION,
    REQUEST_FAILED,
    SHUTTING_DOWN,
    ProtocolError,
)

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
\tch := make(chan int)
\tgo func() {
\t\tch <- 1
\t}()
\tprintln(<-ch)
}
"""

HELPER = """package main

func helper() int {
\tdone := make(chan int, 1)
\tdone <- 1
\treturn <-done
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.go"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def project_dir(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "main.go").write_text(BUGGY)
    (root / "helper.go").write_text(HELPER)
    return root


@pytest.fixture
def service(buggy_file):
    svc = AnalysisService(buggy_file).start()
    yield svc
    svc.stop()


def ok(response):
    assert "error" not in response, response
    return response["result"]


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        request = decode_request('{"id": 7, "method": "detect", "params": {"strict": true}}')
        assert request.id == 7
        assert request.method == "detect"
        assert request.params == {"strict": True}
        assert request.deadline_seconds is None

    def test_deadline_extracted_from_params(self):
        request = decode_request(
            '{"id": "a", "method": "ping", "params": {"deadline_seconds": 2}}'
        )
        assert request.deadline_seconds == 2.0

    @pytest.mark.parametrize(
        "line,code",
        [
            ("not json at all", PARSE_ERROR),
            ("[1, 2, 3]", INVALID_REQUEST),
            ('{"id": 1}', INVALID_REQUEST),
            ('{"id": {"nested": 1}, "method": "ping"}', INVALID_REQUEST),
            ('{"id": 1, "method": "ping", "params": []}', INVALID_PARAMS),
            (
                '{"id": 1, "method": "ping", "params": {"deadline_seconds": -1}}',
                INVALID_PARAMS,
            ),
            (
                '{"id": 1, "method": "ping", "params": {"deadline_seconds": "5"}}',
                INVALID_PARAMS,
            ),
        ],
    )
    def test_rejects_garbage_with_code(self, line, code):
        with pytest.raises(ProtocolError) as err:
            decode_request(line)
        assert err.value.code == code

    def test_error_keeps_request_id_when_parseable(self):
        with pytest.raises(ProtocolError) as err:
            decode_request('{"id": 42, "params": {}}')
        assert err.value.request_id == 42

    def test_encode_line_is_deterministic(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b
        assert a.endswith("\n")


# -- queue ------------------------------------------------------------------


class TestSingleWorkerScheduler:
    """One worker and one tenant: the fair scheduler is a strict FIFO with
    queue-relative deadlines and drain-on-stop."""

    def test_fifo_order(self):
        seen = []
        release = threading.Event()

        def handler(request):
            if not seen:
                release.wait(timeout=5)
            seen.append(request.id)
            return {"id": request.id, "result": {}}

        queue = FairScheduler(handler, workers=1)
        queue.start()
        futures = [queue.submit(Request(id=i, method="ping")) for i in range(5)]
        release.set()
        for future in futures:
            future.result(timeout=5)
        queue.stop()
        assert seen == [0, 1, 2, 3, 4]

    def test_deadline_expires_in_queue_without_running(self):
        ran = []

        def handler(request):
            ran.append(request.id)
            time.sleep(0.1)
            return {"id": request.id, "result": {}}

        queue = FairScheduler(handler, workers=1)
        queue.start()
        first = queue.submit(Request(id="slow", method="ping"))
        doomed = queue.submit(
            Request(id="doomed", method="ping", deadline_seconds=0.01)
        )
        response = doomed.result(timeout=5)
        assert response["error"]["code"] == DEADLINE_EXCEEDED
        first.result(timeout=5)
        queue.stop()
        assert ran == ["slow"]

    def test_submit_after_stop_refused(self):
        queue = FairScheduler(lambda r: {"id": r.id, "result": {}}, workers=1)
        queue.start()
        queue.stop()
        response = queue.submit(Request(id=1, method="ping")).result(timeout=5)
        assert response["error"]["code"] == SHUTTING_DOWN

    def test_stop_answers_every_queued_request(self):
        """Drain-and-stop: nothing already queued is left hanging — every
        future resolves to a response dict (result or SHUTTING_DOWN)."""
        started = threading.Event()
        release = threading.Event()

        def handler(request):
            started.set()
            release.wait(timeout=5)
            return {"id": request.id, "result": {}}

        queue = FairScheduler(handler, workers=1)
        queue.start()
        running = queue.submit(Request(id="running", method="ping"))
        waiting = queue.submit(Request(id="waiting", method="ping"))
        started.wait(timeout=5)
        stopper = threading.Thread(target=queue.stop)
        stopper.start()
        release.set()
        stopper.join(timeout=5)
        assert "result" in running.result(timeout=5)
        late = waiting.result(timeout=5)
        assert "result" in late or late["error"]["code"] == SHUTTING_DOWN


# -- resident project state -------------------------------------------------


class TestProjectState:
    def test_load_single_file(self, buggy_file):
        state = ProjectState(buggy_file)
        delta = state.load()
        assert delta.reparsed == 1
        assert state.generation == 1
        assert state.is_single_file
        assert "main" in state.digests

    def test_noop_refresh_keeps_generation(self, buggy_file):
        state = ProjectState(buggy_file)
        state.load()
        program = state.program
        delta = state.refresh()
        assert delta.is_noop()
        assert delta.reparsed == 0
        assert state.generation == 1
        assert state.program is program  # same object, not a rebuild

    def test_edit_reparses_only_changed_file(self, project_dir):
        state = ProjectState(str(project_dir))
        state.load()
        assert state.generation == 1 and len(state.files) == 2
        (project_dir / "main.go").write_text(CLEAN)
        delta = state.refresh()
        assert delta.reparsed == 1
        assert [p.endswith("main.go") for p in delta.changed_files] == [True]
        assert delta.changed_functions  # main's body changed
        assert state.generation == 2

    def test_added_and_removed_files(self, project_dir):
        state = ProjectState(str(project_dir))
        state.load()
        extra = project_dir / "zz_extra.go"
        extra.write_text("package main\n\nfunc extra() {}\n")
        delta = state.refresh()
        assert delta.added_files and delta.added_functions == ["extra"]
        extra.unlink()
        delta = state.refresh()
        assert delta.removed_files and delta.removed_functions == ["extra"]

    def test_broken_edit_keeps_previous_generation(self, buggy_file, tmp_path):
        state = ProjectState(buggy_file)
        state.load()
        program = state.program
        open(buggy_file, "w").write("package main\nfunc main() { !!!! }\n")
        with pytest.raises(Exception):
            state.refresh()
        # crash-safe: the previous generation is still serving
        assert state.generation == 1
        assert state.program is program


# -- the daemon -------------------------------------------------------------


class TestDaemonMethods:
    def test_ping(self, service):
        result = ok(service.call("ping"))
        assert result["protocol"] == PROTOCOL_VERSION
        assert result["generation"] == 1

    def test_detect_finds_bug_with_exit_code(self, service):
        result = ok(service.call("detect"))
        assert result["code"] == 1
        assert result["reports"]
        assert result["shards"]["total"] > 0
        assert result["refresh"]["noop"] is True

    def test_warm_repeat_is_fully_cached(self, service):
        ok(service.call("detect"))
        before = ok(service.call("metrics"))["counters"]
        assert before.get("solver.calls", 0) > 0
        result = ok(service.call("detect"))
        assert result["shards"]["skip_rate"] == 1.0
        assert result["delta"]["invalidated"] == []
        assert result["delta"]["reused"]
        # pure cache: the warm repeat does no solver work at all
        after = ok(service.call("metrics"))["counters"]
        assert after.get("solver.calls", 0) == before["solver.calls"]

    def test_unknown_method(self, service):
        response = service.call("nonsense")
        assert response["error"]["code"] == METHOD_NOT_FOUND

    def test_fix_on_single_file(self, service):
        result = ok(service.call("fix"))
        assert result["bugs"] == 1 and result["fixed"] == 1
        assert "make(chan int, 1)" in result["fixes"][0]["diff"]

    def test_fix_on_multi_file_project_is_invalid_params(self, project_dir):
        svc = AnalysisService(str(project_dir)).start()
        try:
            response = svc.call("fix")
            assert response["error"]["code"] == INVALID_PARAMS
            # a params error is not a crash: no incident anywhere
            assert "incident" not in response["error"]
            assert not svc.firewall.incidents
        finally:
            svc.stop()

    def test_refresh_reports_delta(self, service, buggy_file):
        ok(service.call("detect"))
        open(buggy_file, "w").write(CLEAN)
        result = ok(service.call("refresh", {"plan": True}))
        assert result["noop"] is False
        assert result["changed_functions"]
        assert result["invalidation"]["total"] > 0

    def test_metrics_exposes_counters_and_cache(self, service):
        ok(service.call("detect"))
        result = ok(service.call("metrics"))
        assert result["counters"]["service.method.detect"] == 1
        assert "cache" in result and result["cache"]["entries"] > 0
        assert result["incidents"] == []

    def test_stats_is_obs_snapshot(self, service):
        ok(service.call("detect"))
        result = ok(service.call("stats"))
        assert result["schema"] == "repro.obs/2"
        assert result["generation"] == 1

    def test_shutdown_flags_service(self, service):
        result = ok(service.call("shutdown"))
        assert result["ok"] and service.shutting_down

    def test_health_matches_cli_semantics(self, service):
        assert ok(service.call("health"))["health"] == "ok"
        ok(service.call("detect"))
        result = ok(service.call("health"))
        assert result["health"] == "ok"
        assert result["code"] == 0  # findings are exit 1 on detect, not health
        assert result["last"]["code"] == 1


class TestCrashIsolation:
    def test_crashed_request_returns_incident_daemon_survives(self, service):
        with injected("service-request@detect:raise:times=1"):
            response = service.call("detect")
        error = response["error"]
        assert error["code"] == REQUEST_FAILED
        assert error["incident"]["site"] == "service-request"
        # the daemon is still serving, and health degraded (not failed)
        result = ok(service.call("detect"))
        assert result["code"] == 1
        health = ok(service.call("health"))
        assert health["health"] in ("ok", "degraded")
        assert health["incidents"] >= 1

    def test_health_degrades_after_crash_without_analysis(self, service):
        with injected("service-request@ping:raise:times=1"):
            assert "error" in service.call("ping")
        health = ok(service.call("health"))
        assert health["health"] == "degraded"
        assert health["code"] == 0

    def test_broken_edit_degrades_detect_not_daemon(self, service, buggy_file):
        baseline = ok(service.call("detect"))
        open(buggy_file, "w").write("package main\nfunc main() { !!!! }\n")
        result = ok(service.call("detect"))
        # refresh failed but the previous generation still answered
        assert result["refresh"]["failed"] is True
        assert result["generation"] == baseline["generation"]
        assert len(result["reports"]) == len(baseline["reports"])
        open(buggy_file, "w").write(BUGGY)
        assert ok(service.call("detect"))["refresh"].get("failed") is None

    def test_an_edit_that_repeats_a_declaration_keeps_the_last_good_generation(
        self, service, buggy_file
    ):
        baseline = ok(service.call("detect"))
        open(buggy_file, "w").write(BUGGY + "\nfunc main() {\n}\n")
        result = ok(service.call("detect"))
        assert result["refresh"]["failed"] is True
        incident = result["refresh"]["incident"]
        assert incident["exception"] == "BuildError"
        assert incident["message"] == (
            f"func main redeclared at {buggy_file}:10 "
            f"(previous declaration at {buggy_file}:3)"
        )
        assert result["generation"] == baseline["generation"]
        assert result["reports"] == baseline["reports"]
        assert ok(service.call("health"))["health"] == "degraded"


class TestExitCodePolicy:
    """``exit_code_for`` is the one-shot CLI policy, by construction and
    by test: 0 clean, 1 findings, 3 budget (opt-in), 4 resilience."""

    def test_matches_cli_constants(self):
        from repro.cli import EXIT_INCIDENT, EXIT_TIMEOUT

        assert exit_code_for(0, False, "ok", 0) == 0
        assert exit_code_for(2, False, "ok", 0) == 1
        assert exit_code_for(0, True, "ok", 0) == 0  # timeouts are opt-in
        assert exit_code_for(0, True, "degraded", 1, fail_on_timeout=True) == EXIT_TIMEOUT
        assert exit_code_for(0, False, "degraded", 1) == 0
        assert exit_code_for(0, False, "degraded", 1, strict=True) == EXIT_INCIDENT
        assert exit_code_for(5, False, "failed", 3) == EXIT_INCIDENT


# -- transports -------------------------------------------------------------


class TestStdioTransport:
    def test_serve_lines_until_shutdown(self, buggy_file):
        import io
        import json

        service = AnalysisService(buggy_file).start()
        stdin = io.StringIO(
            '{"id": 1, "method": "ping"}\n'
            "\n"
            "garbage\n"
            '{"id": 2, "method": "shutdown"}\n'
            '{"id": 3, "method": "ping"}\n'  # after shutdown: never served
        )
        stdout = io.StringIO()
        assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert [l["id"] for l in lines] == [1, None, 2]
        assert lines[0]["result"]["protocol"] == PROTOCOL_VERSION
        assert lines[1]["error"]["code"] == PARSE_ERROR
        assert lines[2]["result"]["ok"] is True


class TestTcpTransport:
    def test_full_session_over_socket(self, buggy_file):
        service = AnalysisService(buggy_file).start()
        server = serve_tcp(service)
        host, port = server.address
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        try:
            with ServiceClient(host, port) as client:
                assert client.result("ping")["protocol"] == PROTOCOL_VERSION
                detect = client.result("detect")
                assert detect["code"] == 1 and detect["reports"]
                # edit to clean over the live daemon
                open(buggy_file, "w").write(CLEAN)
                clean = client.result("detect")
                assert clean["code"] == 0 and not clean["reports"]
                assert clean["refresh"]["noop"] is False
                assert clean["delta"]["invalidated"] or clean["delta"]["added"]
                assert client.result("shutdown")["ok"] is True
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_request_error_is_not_a_dead_connection(self, buggy_file):
        from repro.service import ServiceRequestError

        service = AnalysisService(buggy_file).start()
        server = serve_tcp(service)
        host, port = server.address
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceRequestError) as err:
                    client.result("nonsense")
                assert err.value.code == METHOD_NOT_FOUND
                # same connection still works
                assert client.result("ping")["ok"] is True
                client.result("shutdown")
        finally:
            thread.join(timeout=10)


class TestConnectRetry:
    """Satellite: the client survives the spawn-then-connect race by
    retrying refused connections with deterministic backoff."""

    @staticmethod
    def _free_port() -> int:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_connect_retries_until_daemon_binds(self, buggy_file):
        port = self._free_port()
        service = AnalysisService(buggy_file).start()
        server_box = {}

        def bind_late():
            time.sleep(0.2)
            server = serve_tcp(service, port=port)
            server_box["server"] = server
            server.serve_until_shutdown()

        thread = threading.Thread(target=bind_late, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", port, connect_timeout=10.0) as client:
                assert client.connect_attempts > 1
                assert client.result("ping")["ok"] is True
                client.result("shutdown")
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_zero_connect_timeout_fails_on_first_refusal(self):
        port = self._free_port()
        with pytest.raises(ServiceConnectionError) as err:
            ServiceClient("127.0.0.1", port, connect_timeout=0.0)
        assert "after 1 attempt(s)" in str(err.value)

    def test_backoff_sequence_is_deterministic(self):
        port = self._free_port()
        clock = {"now": 0.0}
        slept = []

        def fake_sleep(seconds):
            slept.append(seconds)
            clock["now"] += seconds

        with pytest.raises(ServiceConnectionError):
            ServiceClient(
                "127.0.0.1",
                port,
                connect_timeout=1.0,
                _sleep=fake_sleep,
                _clock=lambda: clock["now"],
            )
        # 0.05 * 2**k until the next delay would cross the deadline
        assert slept == [0.05, 0.1, 0.2, 0.4]


class TestWatcher:
    def test_poll_reports_content_changes_only(self, project_dir):
        from repro.service import Watcher

        watcher = Watcher(str(project_dir))
        assert watcher.poll() == []
        target = project_dir / "main.go"
        target.write_text(CLEAN)
        changed = watcher.poll()
        assert len(changed) == 1 and changed[0].endswith("main.go")
        assert watcher.poll() == []
        # touching mtime without changing bytes is not a change
        import os

        os.utime(target, None)
        assert watcher.poll() == []

    def test_run_watch_detects_edit(self, buggy_file, monkeypatch):
        from repro.service import run_watch

        lines = []
        edited = {"done": False}
        real_sleep = time.sleep

        def sleep_and_edit(seconds):
            if not edited["done"]:
                edited["done"] = True
                open(buggy_file, "w").write(CLEAN)
            real_sleep(0)

        monkeypatch.setattr(time, "sleep", sleep_and_edit)
        code = run_watch(buggy_file, interval=0, max_cycles=2, out=lines.append)
        assert code == 0  # last detect saw the clean program
        text = "\n".join(lines)
        assert "watching" in text
        assert "RESOLVED" in text


# -- request-scoped telemetry (ISSUE 7) --------------------------------------


class TestRequestTelemetry:
    def test_every_response_carries_a_trace_id(self, service):
        for method in ("ping", "detect", "stats", "metrics", "health"):
            response = service.call(method)
            assert isinstance(response.get("trace_id"), str), method
            assert len(response["trace_id"]) == 32

    def test_client_pinned_trace_id_is_echoed(self, service):
        request = decode_request(
            '{"id": 1, "method": "ping", "trace_id": "my-trace-0001"}'
        )
        response = service.queue.call(request)
        assert response["trace_id"] == "my-trace-0001"

    def test_error_responses_carry_trace_ids(self, service):
        # unknown method
        response = service.call("no_such_method")
        assert response["trace_id"]
        # protocol error: even a garbage line gets a trace id
        from repro.service.daemon import _serve_line

        response = _serve_line(service, "this is not json")
        assert response["error"]["code"] == PARSE_ERROR
        assert response["trace_id"]

    def test_deadline_and_shutdown_responses_carry_trace_ids(self, service):
        release = threading.Event()
        first = Request(id=1, method="detect", params={})
        service.queue.submit(first)  # occupy the worker briefly
        expired = Request(id=2, method="ping", deadline_seconds=1e-9)
        response = service.queue.submit(expired).result(timeout=5)
        if "error" in response:  # may have run if the queue was fast
            assert response["error"]["code"] == DEADLINE_EXCEEDED
            assert response["trace_id"] == expired.trace_id
        service.stop()
        refused = Request(id=3, method="ping")
        response = service.queue.submit(refused).result(timeout=5)
        assert response["error"]["code"] == SHUTTING_DOWN
        assert response["trace_id"] == refused.trace_id

    def test_request_span_carries_the_trace_id(self, service):
        response = service.call("detect")
        trace_id = response["trace_id"]
        spans = [
            s
            for s in service.collector.spans
            if s.name == "service-request" and s.trace_id == trace_id
        ]
        assert len(spans) == 1
        # the whole request tree shares the trace, down into the pipeline
        assert all(s.trace_id == trace_id for s in spans[0].walk())
        assert spans[0].attrs["method"] == "detect"

    def test_request_latency_and_stage_dists_accumulate(self, service):
        service.call("detect")
        service.call("detect")
        dists = service.collector.dists
        assert dists["service.request.seconds"].count >= 2
        assert dists["service.queue.wait_seconds"].count >= 2
        assert any(name.startswith("stage.") for name in dists)

    def test_metrics_text_serves_valid_prometheus(self, service):
        ok(service.call("detect"))
        result = ok(service.call("metrics_text"))
        from repro.obs import validate_exposition

        assert result["content_type"].startswith("text/plain")
        text = result["text"]
        assert validate_exposition(text) == []
        assert "repro_service_requests_total" in text
        assert "repro_service_request_seconds_bucket" in text
        for q in ("p50", "p95", "p99"):
            assert f"repro_service_request_seconds_{q} " in text


class TestTelemetryJournal:
    def test_daemon_journals_one_record_per_request(self, buggy_file, tmp_path):
        journal_path = str(tmp_path / "telemetry.jsonl")
        svc = AnalysisService(buggy_file, journal_path=journal_path).start()
        try:
            r1 = svc.call("detect")
            r2 = svc.call("ping")
        finally:
            svc.stop()
        records = svc.journal.read()
        assert [r["method"] for r in records] == ["detect", "ping"]
        assert records[0]["trace_id"] == r1["trace_id"]
        assert records[1]["trace_id"] == r2["trace_id"]
        detect = records[0]
        assert detect["outcome"] == "ok"
        assert detect["elapsed_seconds"] > 0
        assert detect["reports"] == 1
        assert detect["generation"] == 1
        assert "gcatch" in detect["stages"]

    def test_journal_survives_daemon_restart(self, buggy_file, tmp_path):
        journal_path = str(tmp_path / "telemetry.jsonl")
        svc = AnalysisService(buggy_file, journal_path=journal_path).start()
        svc.call("detect")
        svc.stop()
        svc = AnalysisService(buggy_file, journal_path=journal_path).start()
        svc.call("detect")
        svc.stop()
        records = svc.journal.read()
        assert len(records) == 2  # both generations of the daemon

    def test_slow_requests_capture_span_tree_exemplars(self, buggy_file, tmp_path):
        svc = AnalysisService(
            buggy_file,
            journal_path=str(tmp_path / "t.jsonl"),
            slow_threshold_seconds=0.0,  # everything is "slow"
        ).start()
        try:
            response = svc.call("detect")
            stats = ok(svc.call("stats"))
        finally:
            svc.stop()
        # stats exposes the exemplar ring (the stats request itself is
        # also "slow" under a zero threshold, hence >= 1)
        assert len(stats["exemplars"]) >= 1
        assert stats["exemplars"][0]["trace_id"] == response["trace_id"]
        assert len(svc.exemplars) >= 1
        exemplar = next(
            e for e in svc.exemplars if e["trace_id"] == response["trace_id"]
        )
        assert exemplar["spans"]["name"] == "service-request"
        # evidence pointers reach the engine's shard spans
        names = set()

        def collect(span):
            names.add(span["name"])
            for child in span.get("children", ()):
                collect(child)

        collect(exemplar["spans"])
        assert "gcatch" in names
        # the journal record carries the same exemplar, flagged slow
        record = next(
            r
            for r in svc.journal.read()
            if r["trace_id"] == response["trace_id"]
        )
        assert record["slow"] is True
        assert record["exemplar"]["trace_id"] == response["trace_id"]

    def test_fast_requests_do_not_journal_exemplars(self, buggy_file, tmp_path):
        svc = AnalysisService(
            buggy_file, journal_path=str(tmp_path / "t.jsonl")
        ).start()
        try:
            svc.call("ping")
        finally:
            svc.stop()
        record = svc.journal.read()[-1]
        assert "slow" not in record and "exemplar" not in record
        assert not svc.exemplars

    def test_journal_rotation_under_load(self, buggy_file, tmp_path):
        journal_path = str(tmp_path / "t.jsonl")
        svc = AnalysisService(
            buggy_file,
            journal_path=journal_path,
            journal_max_bytes=2_000,
            journal_max_files=2,
        ).start()
        try:
            for _ in range(100):
                svc.call("ping")
        finally:
            svc.stop()
        import os

        files = svc.journal.files()
        assert len(files) == 2
        assert all(os.path.getsize(f) <= 2_000 for f in files)
        assert all(r["method"] == "ping" for r in svc.journal.read())
