"""Tests for the round-robin scheduler and its queue bound.

The multi-tenant daemon's contract under test:

* round-robin interleaves tenants, one request per turn;
* one tenant's requests never run concurrently, different tenants' do;
* shutdown drains: in-flight requests complete, still-queued requests
  are answered with a structured SHUTTING_DOWN error immediately;
* the queue bound sheds with a structured OVERLOADED (plus a
  retry_after hint) instead of queueing — and a request that is both
  sheddable and past its deadline reports DEADLINE_EXCEEDED (the
  deadline wins), under one worker and under four;
* a flooding tenant cannot starve a quiet one: the quiet tenant's queue
  wait stays bounded by one round-robin round.
"""

import sys
import threading
import time

import pytest

from repro.service import SHED_EXEMPT, AnalysisService, FairScheduler, Request
from repro.service.protocol import (
    DEADLINE_EXCEEDED,
    INVALID_PARAMS,
    OVERLOADED,
    SHUTTING_DOWN,
)

BUGGY = """package main

func main() {
\tch := make(chan int)
\tgo func() {
\t\tch <- 1
\t}()
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


def plugged_scheduler(order, release, workers=1, max_queue=None):
    """A scheduler whose first request blocks until ``release`` is set, so
    tests can build a backlog and then observe the exact drain order."""

    def handler(request):
        if request.tenant == "plug":
            release.wait(timeout=5)
        order.append((request.tenant, request.id))
        return {"id": request.id, "result": {}}

    scheduler = FairScheduler(handler, workers=workers, max_queue=max_queue)
    scheduler.start()
    return scheduler


# -- fair scheduling --------------------------------------------------------


class TestFairScheduler:
    def test_equal_weights_alternate(self):
        order, release = [], threading.Event()
        scheduler = plugged_scheduler(order, release)
        plug = scheduler.submit(Request(id="plug", method="ping", tenant="plug"))
        futures = [
            scheduler.submit(Request(id=i, method="ping", tenant=t))
            for i, t in enumerate(["a"] * 3 + ["b"] * 3)
        ]
        release.set()
        plug.result(timeout=5)
        for future in futures:
            future.result(timeout=5)
        scheduler.stop()
        drained = [tenant for tenant, _ in order if tenant != "plug"]
        assert drained == ["a", "b", "a", "b", "a", "b"]

    def test_flooding_tenant_cannot_starve_quiet_one(self):
        """DRR bounds a quiet tenant's wait to one round: its request is
        served right after the flooder's next one, not after the backlog."""
        order, release = [], threading.Event()
        scheduler = plugged_scheduler(order, release)
        plug = scheduler.submit(Request(id="plug", method="ping", tenant="plug"))
        noisy = [
            scheduler.submit(Request(id=f"n{i}", method="ping", tenant="noisy"))
            for i in range(20)
        ]
        quiet = scheduler.submit(Request(id="q", method="ping", tenant="quiet"))
        release.set()
        plug.result(timeout=5)
        quiet.result(timeout=5)
        for future in noisy:
            future.result(timeout=5)
        scheduler.stop()
        drained = [rid for tenant, rid in order if tenant != "plug"]
        # one noisy request may legitimately run first (it is ahead in the
        # round); the 20-deep backlog may not
        assert drained.index("q") <= 1

    def test_cross_tenant_requests_run_concurrently(self):
        """Two tenants must be in flight at once under workers=2: each
        handler waits at a barrier only both together can pass."""
        barrier = threading.Barrier(2, timeout=5)

        def handler(request):
            barrier.wait()
            return {"id": request.id, "result": {}}

        scheduler = FairScheduler(handler, workers=2)
        scheduler.start()
        futures = [
            scheduler.submit(Request(id=t, method="ping", tenant=t))
            for t in ("a", "b")
        ]
        for future in futures:
            assert "result" in future.result(timeout=5)
        scheduler.stop()

    def test_same_tenant_requests_never_run_concurrently(self):
        active, seen_overlap = set(), []
        lock = threading.Lock()

        def handler(request):
            with lock:
                if request.tenant in active:
                    seen_overlap.append(request.id)
                active.add(request.tenant)
            time.sleep(0.005)
            with lock:
                active.discard(request.tenant)
            return {"id": request.id, "result": {}}

        scheduler = FairScheduler(handler, workers=4)
        scheduler.start()
        futures = [
            scheduler.submit(Request(id=f"{t}{i}", method="ping", tenant=t))
            for i in range(8)
            for t in ("a", "b", "c")
        ]
        for future in futures:
            future.result(timeout=10)
        scheduler.stop()
        assert seen_overlap == []

    def test_stop_answers_queued_with_shutting_down_immediately(self):
        """The hardened drain semantics: the in-flight request completes,
        still-queued requests get SHUTTING_DOWN *without running* — even
        though the worker frees up afterwards."""
        started, release = threading.Event(), threading.Event()
        ran = []
        rejected = []

        def handler(request):
            started.set()
            release.wait(timeout=5)
            ran.append(request.id)
            return {"id": request.id, "result": {}}

        scheduler = FairScheduler(
            handler, workers=1, on_reject=lambda req, resp: rejected.append(req.id)
        )
        scheduler.start()
        running = scheduler.submit(Request(id="running", method="ping"))
        queued = [
            scheduler.submit(Request(id=f"q{i}", method="ping")) for i in range(3)
        ]
        started.wait(timeout=5)
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        # the queued futures resolve before the worker is even free
        for i, future in enumerate(queued):
            assert future.result(timeout=5)["error"]["code"] == SHUTTING_DOWN
        release.set()
        stopper.join(timeout=5)
        assert "result" in running.result(timeout=5)
        assert ran == ["running"]
        assert sorted(rejected) == ["q0", "q1", "q2"]


# -- the queue bound ---------------------------------------------------------


def fill(scheduler, depth):
    """Plug the single worker, then queue ``depth`` detects behind it."""
    plug = scheduler.submit(Request(id="plug", method="detect", tenant="plug"))
    deadline = time.monotonic() + 5
    while scheduler.depth:  # until the worker takes the plug: in flight
        assert time.monotonic() < deadline, "the worker never took the plug"
        time.sleep(0.001)
    queued = [
        scheduler.submit(Request(id=f"q{i}", method="detect", tenant=f"t{i}"))
        for i in range(depth)
    ]
    return [plug] + queued


class TestQueueBound:
    def test_global_depth_sheds_overloaded(self):
        """The bound counts queued requests of every tenant together."""
        order, release = [], threading.Event()
        scheduler = plugged_scheduler(order, release, max_queue=2)
        try:
            admitted = fill(scheduler, 2)
            shed = scheduler.submit(Request(id=1, method="detect", tenant="new"))
            response = shed.result(timeout=5)
            assert response["error"]["code"] == OVERLOADED
            assert response["error"]["message"] == (
                "queue is full (2/2 requests queued)"
            )
            assert response["error"]["retry_after"] > 0
            assert scheduler.sheds == 1
            release.set()
            for future in admitted:
                assert "result" in future.result(timeout=5)
        finally:
            release.set()
            scheduler.stop()

    def test_operational_methods_exempt(self):
        order, release = [], threading.Event()
        scheduler = plugged_scheduler(order, release, max_queue=1)
        try:
            fill(scheduler, 1)
            exempt = [
                scheduler.submit(Request(id=method, method=method))
                for method in sorted(SHED_EXEMPT)
            ]
            assert scheduler.depth == 1 + len(SHED_EXEMPT)
            assert scheduler.sheds == 0
            release.set()
            for future in exempt:
                assert "result" in future.result(timeout=5)
        finally:
            release.set()
            scheduler.stop()

    def test_ewma_prices_retry_after(self):
        order, release = [], threading.Event()
        scheduler = plugged_scheduler(order, release, max_queue=3)
        try:
            scheduler.observe(Request(id=1, method="detect"), 2.0)
            # operational methods are not analysis work: the EWMA ignores them
            scheduler.observe(Request(id=2, method="ping"), 100.0)
            fill(scheduler, 3)
            shed = scheduler.submit(Request(id=3, method="detect"))
            retry_after = shed.result(timeout=5)["error"]["retry_after"]
            assert retry_after == pytest.approx((3 + 1) * 2.0)
        finally:
            release.set()
            scheduler.stop()

    def test_concurrent_submitters_keep_the_counts_exact(self):
        """Stress: 8 submitting threads against 4 workers (more than the
        cores of a small host) under a tiny switch interval. Every request
        is served or shed, the shed count equals the OVERLOADED answers,
        and the queue drains to zero: no update to the shared queue state
        is lost."""
        served, futures = [], []
        lock = threading.Lock()

        def handler(request):
            with lock:
                served.append(request.id)
            return {"id": request.id, "result": {}}

        def submit(worker):
            for i in range(50):
                future = scheduler.submit(
                    Request(id=f"{worker}-{i}", method="detect", tenant=f"t{i % 5}")
                )
                with lock:
                    futures.append(future)

        scheduler = FairScheduler(handler, workers=4, max_queue=3)
        scheduler.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            responses = [future.result(timeout=30) for future in futures]
            drained = (scheduler.depth, scheduler.depths())
        finally:
            sys.setswitchinterval(interval)
            scheduler.stop()
        shed = [r for r in responses if "error" in r]
        assert all(r["error"]["code"] == OVERLOADED for r in shed)
        assert len(shed) == scheduler.sheds
        assert len(served) + len(shed) == 8 * 50
        assert sorted(served) == sorted(r["id"] for r in responses if "result" in r)
        assert drained == (0, {})


# -- daemon-level overload behavior -----------------------------------------


def fast_detect(gate=None, started=None):
    """A deterministic stand-in for the real detect handler."""

    def handler(params, ctx):
        if started is not None:
            started.set()
        if gate is not None:
            gate.wait(timeout=5)
        return {"generation": ctx.tenant.state.generation, "reports": []}

    return handler


class TestDaemonAdmission:
    def test_max_queue_sheds_overloaded(self, buggy_file):
        gate, started = threading.Event(), threading.Event()
        service = AnalysisService(buggy_file, workers=1, max_queue=2).start()
        try:
            service._method_detect = fast_detect(gate, started)
            running = service.queue.submit(Request(id="r", method="detect"))
            started.wait(timeout=5)  # in flight, not queued
            queued = [
                service.queue.submit(Request(id=f"q{i}", method="detect"))
                for i in range(2)
            ]
            shed = service.queue.submit(Request(id="shed", method="detect"))
            response = shed.result(timeout=5)
            assert response["error"]["code"] == OVERLOADED
            assert response["error"]["retry_after"] >= 0
            # an overloaded daemon stays observable: ping is exempt
            assert "result" in service.call("ping")
            gate.set()
            assert "result" in running.result(timeout=5)
            for future in queued:
                assert "result" in future.result(timeout=5)
            assert service.collector.counters.get("service.shed") == 1
            assert service.collector.counters.get("service.shed.overloaded") == 1
        finally:
            gate.set()
            service.stop()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_deadline_wins_over_shed(self, buggy_file, workers):
        """A request that is both over the queue bound and past its
        deadline must deterministically report DEADLINE_EXCEEDED, serial
        or concurrent: the tenant's first request is in flight and its
        second fills the queue, whatever the worker count."""
        gate, started = threading.Event(), threading.Event()
        service = AnalysisService(buggy_file, workers=workers, max_queue=1).start()
        try:
            service._method_detect = fast_detect(gate, started)
            running = service.queue.submit(Request(id="r", method="detect"))
            started.wait(timeout=5)  # in flight, not queued
            queued = service.queue.submit(Request(id="q", method="detect"))
            over_bound = service.call("detect")
            assert over_bound["error"]["code"] == OVERLOADED
            both = service.call("detect", deadline_seconds=1e-9)
            assert both["error"]["code"] == DEADLINE_EXCEEDED
            assert "expired at admission" in both["error"]["message"]
            gate.set()
            for future in (running, queued):
                assert "result" in future.result(timeout=5)
        finally:
            gate.set()
            service.stop()

    def test_unknown_tenant_rejected_at_admission(self, buggy_file):
        service = AnalysisService(buggy_file, workers=1).start()
        try:
            response = service.call("detect", tenant="ghost")
            assert response["error"]["code"] == INVALID_PARAMS
            assert "register" in response["error"]["message"]
        finally:
            service.stop()

    def test_shutdown_drain_journals_every_outcome(self, buggy_file, tmp_path):
        """Satellite regression: stop() completes the in-flight request,
        answers queued ones with SHUTTING_DOWN, and journals both."""
        journal_path = tmp_path / "journal.jsonl"
        gate = threading.Event()
        started = threading.Event()
        service = AnalysisService(
            buggy_file, workers=1, journal_path=str(journal_path)
        ).start()
        try:

            def handler(params, ctx):
                started.set()
                gate.wait(timeout=5)
                return {"generation": 1}

            service._method_detect = handler
            running = service.queue.submit(Request(id="r", method="detect"))
            queued = service.queue.submit(Request(id="q", method="detect"))
            started.wait(timeout=5)
            stopper = threading.Thread(target=service.stop)
            stopper.start()
            assert queued.result(timeout=5)["error"]["code"] == SHUTTING_DOWN
            gate.set()
            stopper.join(timeout=5)
            assert "result" in running.result(timeout=5)
        finally:
            gate.set()
            service.stop()
        outcomes = sorted(
            record["outcome"] for record in service.journal.iter_records()
        )
        assert outcomes == ["ok", "shutdown"]

    def test_overload_burst_every_request_answered(self, buggy_file, tmp_path):
        """An in-process soak: a burst far beyond max_queue is fully
        answered — served or structurally shed, nothing hangs, nothing
        crashes, and the journal records every outcome."""
        journal_path = tmp_path / "journal.jsonl"
        extra = tmp_path / "extra.go"
        extra.write_text(BUGGY)
        service = AnalysisService(
            buggy_file,
            workers=2,
            max_queue=4,
            journal_path=str(journal_path),
        ).start()
        try:

            def handler(params, ctx):
                time.sleep(0.002)
                return {"generation": ctx.tenant.state.generation}

            service._method_detect = handler
            for tenant in ("b", "c"):
                ok(service.call("register", {"tenant": tenant, "path": str(extra)}))
            futures = [
                service.queue.submit(
                    Request(id=i, method="detect", tenant=["default", "b", "c"][i % 3])
                )
                for i in range(60)
            ]
            served = shed = 0
            for future in futures:
                response = future.result(timeout=30)
                if "result" in response:
                    served += 1
                else:
                    assert response["error"]["code"] == OVERLOADED
                    shed += 1
            assert served + shed == 60
            assert served > 0 and shed > 0
            assert "result" in service.call("health")
            assert service.call("health")["result"]["health"] == "ok"
        finally:
            service.stop()
        records = [
            r
            for r in service.journal.iter_records()
            if r["method"] == "detect"
        ]
        assert len(records) == 60
        assert sum(1 for r in records if r["outcome"] == "overloaded") == shed
