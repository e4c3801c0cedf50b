"""The long-lived, multi-tenant analysis daemon.

One :class:`AnalysisService` owns a
:class:`~repro.service.tenants.TenantRegistry` of resident projects
(the ``default`` tenant is the project the daemon was started with), a
**shared** :class:`~repro.engine.cache.ResultCache` (fingerprints are
content-addressed, so identical code across tenants warm-hits the same
entries), the daemon-lifetime :class:`~repro.obs.Collector` and incident
ledger, and a :class:`~repro.service.scheduler.FairScheduler` feeding a
pool of analysis workers. Transports — the stdio loop and the TCP
server, both speaking the line-delimited protocol of
:mod:`repro.service.protocol` — only enqueue and relay.

Concurrency model: the scheduler never runs two requests of the *same*
tenant at once, so each tenant's resident state
(:class:`~repro.service.project.ProjectState`, detect fingerprints,
health) stays single-writer; shared structures (result cache, collector
counters/dists, incident ledger) are lock-protected. Each request runs
against a private sub-collector whose span tree and metrics are merged
into the daemon's collector at completion, so traces stay intact under
``--workers N``. The engine's ``cache.hit`` / ``cache.miss`` counters are
the only cache accounting: a request's own pair fills its journal
record's ``cache`` field, the daemon's merged pair is ``metrics.cache``.

Overload semantics (see :mod:`repro.service.scheduler`): a request for
an unregistered tenant is rejected at submit time, before it is queued,
and ``--max-queue`` bounds the queue *under the scheduler lock* — excess
analysis work is shed with a structured ``OVERLOADED`` error (plus a
``retry_after`` hint) instead of queued, and a request that is both
sheddable and past its deadline is answered ``DEADLINE_EXCEEDED`` (the
deadline wins). Every rejection is journaled with its outcome, same as
a served request.

The serving loop of one ``detect`` request is unchanged from PR 5:

1. **refresh** — re-read the tenant's file set; re-parse only files
   whose bytes changed; rebuild the program iff anything did;
2. **analyze** — run the detection engine against the shared warm cache:
   every shard whose scope fingerprint survived answers from cache;
3. **delta** — diff the new shard fingerprints against that tenant's
   previous request.

Failure semantics match the CLI's: a crash inside a request degrades
into a structured incident on *that request's* error response (code
``REQUEST_FAILED``, fault site ``service-request``) and the daemon keeps
serving.
"""

from __future__ import annotations

import dataclasses
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cli import exit_code_for
from repro.detector.gcatch import GCatchResult, run_gcatch
from repro.detector.reporting import BugReport
from repro.engine import EngineConfig, ResultCache, diff_fingerprints
from repro.engine.invalidate import InvalidationDelta, shard_key
from repro.obs import (
    STAGE_SERVICE_REQUEST,
    Collector,
    Span,
    TelemetryJournal,
    render_prometheus,
    request_record,
    snapshot,
)
from repro.resilience.faultinject import maybe_fault
from repro.resilience.firewall import Firewall
from repro.resilience.incidents import incidents_to_json
from repro.service.project import ProjectState
from repro.service.protocol import (
    DEADLINE_EXCEEDED,
    DEFAULT_TENANT,
    METHOD_NOT_FOUND,
    METHODS,
    INVALID_PARAMS,
    OVERLOADED,
    PROTOCOL_VERSION,
    REQUEST_FAILED,
    SHUTTING_DOWN,
    ProtocolError,
    Request,
    ServiceError,
    decode_request,
    encode_line,
    error_response,
    result_response,
)
from repro.service.scheduler import FairScheduler
from repro.service.tenants import TenantRegistry, TenantState

__all__ = [
    "AnalysisService",
    "RequestContext",
    "ServiceError",
    "ServiceServer",
    "exit_code_for",
    "serve_stdio",
    "serve_tcp",
]

#: methods that do not address one tenant's resident state, so they are
#: served even when the request's tenant id is not (yet) registered
_TENANTLESS_METHODS = ("register", "tenants", "fuzz")

#: rejection code -> journal outcome tag
_REJECT_OUTCOMES = {
    OVERLOADED: "overloaded",
    DEADLINE_EXCEEDED: "deadline",
    SHUTTING_DOWN: "shutdown",
}


def report_to_json(report: BugReport) -> dict:
    return {
        "category": report.category,
        "description": report.description,
        "lines": list(report.lines),
        "render": report.render(),
    }


@dataclass
class RequestContext:
    """Everything one in-flight request is allowed to touch: its tenant's
    resident state and its private sub-collector."""

    request: Request
    tenant: TenantState
    obs: Collector


class AnalysisService:
    """The resident analysis service behind every transport."""

    def __init__(
        self,
        path: str,
        config: Optional[EngineConfig] = None,
        journal_path: Optional[str] = None,
        journal_max_bytes: int = 4_000_000,
        journal_max_files: int = 3,
        slow_threshold_seconds: float = 5.0,
        workers: int = 1,
        max_queue: Optional[int] = None,
    ):
        self.collector = Collector(f"serve:{path}")
        #: tenant id -> resident project; 'default' is the daemon's own
        self.tenants = TenantRegistry(path, collector=self.collector)
        config = config or EngineConfig()
        if config.cache is None:
            # the warm cache is the point of staying resident (memory-only
            # unless the config brings a disk-backed one) — and it is
            # deliberately shared across tenants: fingerprints are
            # content-addressed, so identical code keys identical entries
            config = dataclasses.replace(config, cache=ResultCache())
        self.config = config
        self.firewall = Firewall(collector=self.collector)
        self.queue = FairScheduler(
            self._handle,
            workers=workers,
            collector=self.collector,
            max_queue=max_queue,
            admit=self._admit,
            on_reject=self._record_rejection,
        )
        self.started = time.monotonic()
        self.requests_served = 0
        self._stats_lock = threading.Lock()
        self._shutdown = threading.Event()
        #: optional persistent telemetry journal: one JSONL record per
        #: request — served *or shed* — with size-bounded rotation
        self.journal: Optional[TelemetryJournal] = (
            TelemetryJournal(
                journal_path,
                max_bytes=journal_max_bytes,
                max_files=journal_max_files,
            )
            if journal_path
            else None
        )
        #: requests slower than this capture a full span-tree exemplar
        self.slow_threshold_seconds = slow_threshold_seconds
        #: most recent slow-request exemplars, newest last (also journaled)
        self.exemplars: "deque[dict]" = deque(maxlen=8)

    @property
    def state(self) -> ProjectState:
        """The default tenant's resident project (PR-5 compatibility)."""
        return self.tenants.default.state

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AnalysisService":
        """Load the default project and start the workers; raises on a
        project that cannot even be loaded (there is nothing to serve)."""
        self.state.load()
        self.queue.start()
        return self

    def stop(self) -> None:
        self._shutdown.set()
        self.queue.stop()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown.is_set()

    def call(
        self,
        method: str,
        params: Optional[dict] = None,
        deadline_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> dict:
        """In-process convenience: one request through the real scheduler."""
        request = Request(
            id=None,
            method=method,
            params=params or {},
            deadline_seconds=deadline_seconds,
            tenant=tenant,
        )
        return self.queue.call(request)

    # -- admission ---------------------------------------------------------

    def _admit(self, request: Request) -> Optional[dict]:
        """The scheduler's submit-time hook, run before the request is
        queued: ``None`` admits; a response dict rejects a request for an
        unregistered tenant."""
        if (
            request.method in METHODS
            and request.method not in _TENANTLESS_METHODS
            and request.tenant not in self.tenants
        ):
            return error_response(
                request.id,
                INVALID_PARAMS,
                f"unknown tenant {request.tenant!r}; register it first "
                "(method 'register')",
                trace_id=request.trace_id,
            )
        return None

    def _record_rejection(self, request: Request, response: dict) -> None:
        """Account and journal a request answered without being served
        (unknown tenant, shed, deadline expiry, shutdown flush)."""
        error = response.get("error") or {}
        code = error.get("code")
        outcome = _REJECT_OUTCOMES.get(code, "rejected")
        obs = self.collector
        if code == OVERLOADED:
            obs.count("service.shed")
            obs.count(f"service.shed.{outcome}")
            obs.count(f"tenant.{request.tenant}.shed")
            tenant = self.tenants.maybe(request.tenant)
            if tenant is not None:
                tenant.shed += 1
        if self.journal is None:
            return
        record = request_record(
            trace_id=request.trace_id,
            method=request.method,
            outcome=outcome,
            elapsed_seconds=0.0,
            queue_wait_seconds=request.queue_wait_seconds,
            tenant=request.tenant,
        )
        try:
            self.journal.append(record)
        except OSError:
            obs.count("journal.error")

    # -- request handling --------------------------------------------------

    def _handle(self, request: Request) -> dict:
        """One scheduled request: firewall around the handler, so a crash
        is an error response with an incident — never a dead daemon. Every
        path out of here echoes the request's ``trace_id``; served
        requests additionally land one telemetry-journal record."""
        handler = getattr(self, "_method_" + request.method, None)
        if request.method not in METHODS or handler is None:
            return error_response(
                request.id,
                METHOD_NOT_FOUND,
                f"unknown method {request.method!r} "
                f"(valid methods: {', '.join(METHODS)})",
                trace_id=request.trace_id,
            )
        # None only for a tenantless method: _admit rejected the rest
        resident = self.tenants.maybe(request.tenant)
        with self._stats_lock:
            self.requests_served += 1
        obs = self.collector
        obs.count("service.requests")
        obs.count(f"service.method.{request.method}")
        obs.count(f"tenant.{request.tenant}.requests")
        # each request runs against a private sub-collector (span stacks
        # are per-thread by construction only under workers=1); its tree
        # and metrics merge into the daemon collector at completion
        req_obs = Collector(f"request:{request.trace_id}")
        ctx = RequestContext(
            request=request, tenant=resident or self.tenants.default, obs=req_obs
        )
        if resident is not None:
            # single-writer by scheduler serialization: the tenant's
            # resident state reports refresh/parse into this request's tree
            resident.state.collector = req_obs
        started = time.perf_counter()
        outcome = "ok"
        with req_obs.span(
            STAGE_SERVICE_REQUEST,
            trace_id=request.trace_id,
            method=request.method,
            tenant=request.tenant,
        ) as request_span:
            try:
                guarded = self.firewall.call(
                    lambda: self._run_handler(handler, request, ctx),
                    site="service-request",
                    label=f"{request.tenant}:{request.method}",
                    reraise=(ServiceError,),
                )
            except ServiceError as exc:
                guarded = None
                outcome = "error"
                response = error_response(
                    request.id, exc.code, str(exc), trace_id=request.trace_id
                )
        elapsed = time.perf_counter() - started
        if guarded is not None:
            if guarded.ok:
                response = result_response(
                    request.id, guarded.value, trace_id=request.trace_id
                )
            else:
                outcome = "crashed"
                incident = guarded.incident
                response = error_response(
                    request.id,
                    REQUEST_FAILED,
                    f"request crashed: {incident.exception}: {incident.message}",
                    incident=incident.to_json(),
                    trace_id=request.trace_id,
                )
        if resident is not None:
            resident.served += 1
        self.collector.merge(req_obs)
        self._finish_request(
            request,
            request_span,
            response,
            outcome,
            elapsed,
            cache_delta={
                "hits": req_obs.counters.get("cache.hit", 0),
                "misses": req_obs.counters.get("cache.miss", 0),
            },
        )
        return response

    def _finish_request(
        self,
        request: Request,
        request_span: Span,
        response: dict,
        outcome: str,
        elapsed: float,
        cache_delta: Dict[str, int],
    ) -> None:
        """Post-response telemetry: latency/stage distributions, the slow
        exemplar, the journal record. Never fails the request — a broken
        journal disk degrades into a ``journal.error`` counter."""
        obs = self.collector
        obs.observe("service.request.seconds", elapsed)
        obs.observe(f"tenant.{request.tenant}.request.seconds", elapsed)
        self.queue.observe(request, elapsed)
        stages: Dict[str, float] = {}
        for span in request_span.walk():
            if span is request_span:
                continue
            stages[span.name] = stages.get(span.name, 0.0) + span.seconds
        for name, seconds in stages.items():
            obs.observe(f"stage.{name}.seconds", seconds)
        slow = elapsed >= self.slow_threshold_seconds
        exemplar: Optional[dict] = None
        if slow:
            obs.count("service.slow-requests")
            exemplar = {
                "trace_id": request.trace_id,
                "method": request.method,
                "tenant": request.tenant,
                "elapsed_seconds": elapsed,
                "queue_wait_seconds": request.queue_wait_seconds,
                "spans": request_span.to_dict(),
            }
            self.exemplars.append(exemplar)
        if self.journal is None:
            return
        result = response.get("result")
        incidents = 0
        if isinstance(result, dict) and isinstance(result.get("incidents"), list):
            incidents = len(result["incidents"])
        elif "error" in response and "incident" in response["error"]:
            incidents = 1
        record = request_record(
            trace_id=request.trace_id,
            method=request.method,
            outcome=outcome,
            elapsed_seconds=elapsed,
            queue_wait_seconds=request.queue_wait_seconds,
            tenant=request.tenant,
            code=result.get("code") if isinstance(result, dict) else None,
            reports=len(result["reports"])
            if isinstance(result, dict) and isinstance(result.get("reports"), list)
            else None,
            generation=result.get("generation") if isinstance(result, dict) else None,
            stages=stages,
            cache=cache_delta if any(cache_delta.values()) else None,
            incidents=incidents,
            slow=slow,
            exemplar=exemplar,
        )
        try:
            self.journal.append(record)
        except OSError:
            obs.count("journal.error")

    def _run_handler(self, handler, request: Request, ctx: RequestContext):
        maybe_fault("service-request", f"{request.tenant}:{request.method}")
        return handler(request.params, ctx)

    def _refresh(self, ctx: RequestContext):
        """Refresh behind its own firewall: a broken edit (parse error,
        vanished file) keeps the previous generation serving and surfaces
        as an incident, exactly like any other degraded unit."""
        guarded = self.firewall.call(
            ctx.tenant.state.refresh,
            site="service-request",
            label=f"{ctx.request.tenant}:refresh",
        )
        if guarded.ok:
            return guarded.value, None
        return None, guarded.incident

    # -- methods -----------------------------------------------------------

    def _method_ping(self, params: dict, ctx: RequestContext) -> dict:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "project": ctx.tenant.state.path,
            "tenant": ctx.tenant.tenant_id,
            "tenants": len(self.tenants),
            "workers": self.queue.workers,
            "generation": ctx.tenant.state.generation,
            "uptime_seconds": time.monotonic() - self.started,
        }

    def _method_refresh(self, params: dict, ctx: RequestContext) -> dict:
        delta, incident = self._refresh(ctx)
        if incident is not None:
            raise ServiceError(
                REQUEST_FAILED,
                f"refresh failed: {incident.exception}: {incident.message}",
            )
        payload = delta.to_json()
        payload["noop"] = delta.is_noop()
        if params.get("plan") and not delta.is_noop():
            # optional: pre-compute the shard-level invalidation without
            # analyzing (front half of the pipeline only)
            from repro.engine.invalidate import shard_fingerprints

            new = shard_fingerprints(
                ctx.tenant.state.program,
                config=self.config,
                collector=ctx.obs,
            )
            payload["invalidation"] = diff_fingerprints(
                ctx.tenant.fingerprints, new
            ).to_json()
        return payload

    def _detect(
        self, params: dict, ctx: RequestContext
    ) -> "tuple[GCatchResult, Optional[dict]]":
        refresh_payload = None
        if params.get("refresh", True):
            delta, incident = self._refresh(ctx)
            if incident is not None:
                if ctx.tenant.state.program is None:
                    raise ServiceError(
                        REQUEST_FAILED,
                        f"project failed to load: {incident.message}",
                    )
                refresh_payload = {"failed": True, "incident": incident.to_json()}
            else:
                refresh_payload = delta.to_json()
                refresh_payload["noop"] = delta.is_noop()
        result = run_gcatch(ctx.tenant.state.program, config=self.config, collector=ctx.obs)
        return result, refresh_payload

    def _method_detect(self, params: dict, ctx: RequestContext) -> dict:
        result, refresh_payload = self._detect(params, ctx)
        tenant = ctx.tenant
        shards = result.shards
        cached = sum(1 for s in shards if s.outcome == "cached")
        new_fps = {shard_key(s): s.fingerprint for s in shards}
        delta: Optional[InvalidationDelta] = None
        if tenant.fingerprints:
            delta = diff_fingerprints(tenant.fingerprints, new_fps)
        tenant.fingerprints = new_fps
        reports = result.all_reports()
        health = result.health()
        code = exit_code_for(
            len(reports),
            result.has_timeouts(),
            health,
            len(result.incidents),
            strict=bool(params.get("strict")),
            fail_on_timeout=bool(params.get("fail_on_timeout")),
        )
        tenant.last = {
            "method": "detect",
            "generation": tenant.state.generation,
            "reports": len(reports),
            "health": health,
            "code": code,
            "incidents": len(result.incidents),
        }
        payload = {
            "generation": tenant.state.generation,
            "reports": [report_to_json(r) for r in reports],
            "bmoc": len(result.bmoc.reports),
            "traditional": len(result.traditional),
            "health": health,
            "code": code,
            "timed_out": result.has_timeouts(),
            "elapsed_seconds": result.elapsed_seconds,
            "shards": {
                "total": len(shards),
                "cached": cached,
                "executed": len(shards) - cached,
                "timeout": len(result.timed_out_shards()),
                "failed": len(result.failed_shards()),
                "skip_rate": cached / len(shards) if shards else 1.0,
            },
        }
        if refresh_payload is not None:
            payload["refresh"] = refresh_payload
        if delta is not None:
            payload["delta"] = delta.to_json()
        if result.incidents:
            payload["incidents"] = incidents_to_json(result.incidents)
        return payload

    def _method_fuzz(self, params: dict, ctx: RequestContext) -> dict:
        """One fuzz-campaign shard: triage program indexes
        ``[start, start+count)`` of ``seed``. Generation is pure in
        (seed, index), so shards merged across a fleet reproduce the
        single-process campaign exactly — the triage dicts carry no
        timing, and the nondeterministic wall clock stays out of them.
        """
        seed = params.get("seed", 0)
        start = params.get("start", 0)
        count = params.get("count")
        for name, value in (("seed", seed), ("start", start), ("count", count)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(
                    INVALID_PARAMS, f"fuzz needs integer params.{name}"
                )
        if count <= 0 or start < 0:
            raise ServiceError(
                INVALID_PARAMS, "fuzz needs count > 0 and start >= 0"
            )
        from repro.fuzz.campaign import run_campaign

        report = run_campaign(seed, count, start=start, collector=ctx.obs)
        return {
            "seed": seed,
            "start": start,
            "count": count,
            "triages": [t.to_dict() for t in report.triages],
            "buckets": report.buckets(),
            "unexplained": len(report.unexplained()),
            "crashes": len(report.crashes()),
            "elapsed_seconds": round(report.elapsed_seconds, 6),
        }

    def _method_fix(self, params: dict, ctx: RequestContext) -> dict:
        tenant = ctx.tenant
        single = tenant.state.single_source
        if single is None:
            raise ServiceError(
                INVALID_PARAMS,
                "fix needs the patchable source text, so it is only "
                "available on single-file projects",
            )
        result, refresh_payload = self._detect(params, ctx)
        bugs = result.bmoc.bmoc_channel_bugs()
        from repro.fixer.dispatcher import GFix

        gfix = GFix(tenant.state.program, single.source, collector=ctx.obs)
        summary = gfix.fix_all(bugs)
        incidents = list(result.incidents) + summary.incidents()
        fixed = summary.fixed()
        health = result.health()
        code = exit_code_for(
            0, False, health, len(incidents), strict=bool(params.get("strict"))
        )
        tenant.last = {
            "method": "fix",
            "generation": tenant.state.generation,
            "reports": len(bugs),
            "health": health,
            "code": code,
            "incidents": len(incidents),
        }
        payload = {
            "generation": tenant.state.generation,
            "bugs": len(bugs),
            "fixed": len(fixed),
            "code": code,
            "health": health,
            "fixes": [
                {
                    "description": fix.report.description,
                    "fixed": fix.fixed,
                    "strategy": fix.strategy if fix.fixed else None,
                    "diff": fix.patch.unified_diff(single.path)
                    if fix.fixed
                    else None,
                    "reason": None if fix.fixed else fix.reason,
                }
                for fix in summary.results
            ],
        }
        if refresh_payload is not None:
            payload["refresh"] = refresh_payload
        if incidents:
            payload["incidents"] = incidents_to_json(incidents)
        return payload

    def _method_register(self, params: dict, ctx: RequestContext) -> dict:
        tenant_id = params.get("tenant") or ctx.request.tenant
        if not isinstance(tenant_id, str) or not tenant_id:
            raise ServiceError(
                INVALID_PARAMS, "register needs a tenant id (params.tenant)"
            )
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError(
                INVALID_PARAMS,
                "register needs params.path (a .go file or a project directory)",
            )
        tenant = self.tenants.register(tenant_id, path)
        payload = tenant.to_json()
        payload["ok"] = True
        return payload

    def _method_tenants(self, params: dict, ctx: RequestContext) -> dict:
        return {
            "tenants": [tenant.to_json() for tenant in self.tenants.items()],
            "depths": self.queue.depths(),
            "workers": self.queue.workers,
            "sheds": self.queue.sheds,
        }

    def _method_stats(self, params: dict, ctx: RequestContext) -> dict:
        """The full ``repro.obs/2`` snapshot of the daemon's collector."""
        extra = {
            "project": self.state.path,
            "generation": self.state.generation,
            "requests": self.requests_served,
            "tenants": len(self.tenants),
            "uptime_seconds": time.monotonic() - self.started,
        }
        if self.firewall.incidents:
            extra["incidents"] = incidents_to_json(self.firewall.incidents)
        if self.exemplars:
            extra["exemplars"] = list(self.exemplars)
        return snapshot(self.collector, extra=extra)

    def _method_metrics_text(self, params: dict, ctx: RequestContext) -> dict:
        """Prometheus text exposition of the daemon's collector, for
        scrapers (``repro client <addr> metrics_text`` prints it raw)."""
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_prometheus(self.collector),
        }

    def _method_metrics(self, params: dict, ctx: RequestContext) -> dict:
        """The light health/metrics view: obs counters + incident ledger.
        ``cache.hits`` / ``cache.misses`` are the merged ``cache.hit`` /
        ``cache.miss`` counters of every request served so far."""
        counters = dict(self.collector.counters)
        cache = self.config.cache
        return {
            "counters": counters,
            "gauges": dict(self.collector.gauges),
            "incidents": incidents_to_json(self.firewall.incidents),
            "cache": {
                "entries": len(cache),
                "hits": counters.get("cache.hit", 0),
                "misses": counters.get("cache.miss", 0),
                "corrupt": cache.corrupt,
            },
            "scheduler": {
                "workers": self.queue.workers,
                "depth": self.queue.depth,
                "depths": self.queue.depths(),
                "sheds": self.queue.sheds,
            },
            "tenants": len(self.tenants),
            "requests": self.requests_served,
            "uptime_seconds": time.monotonic() - self.started,
        }

    def _method_health(self, params: dict, ctx: RequestContext) -> dict:
        """Same ok/degraded/failed semantics (and exit code) the CLI
        reports: the verdict of the tenant's last analysis, or of the
        daemon's own ledger when nothing has been analyzed yet."""
        last = ctx.tenant.last
        health = last["health"] if last is not None else "ok"
        if health == "ok" and self.firewall.incidents:
            # crashed requests since the last clean analysis degrade the
            # daemon even though that analysis itself was fine
            health = "degraded"
        return {
            "health": health,
            "code": exit_code_for(0, False, health, 0),
            "last": dict(last) if last is not None else None,
            "incidents": len(self.firewall.incidents),
        }

    def _method_shutdown(self, params: dict, ctx: RequestContext) -> dict:
        self._shutdown.set()
        return {"ok": True, "requests_served": self.requests_served}


# -- transports -------------------------------------------------------------


def serve_stdio(service: AnalysisService, stdin=None, stdout=None) -> int:
    """Serve the line protocol over stdio until EOF or ``shutdown``."""
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        if not line.strip():
            continue
        response = _serve_line(service, line)
        stdout.write(encode_line(response))
        stdout.flush()
        if service.shutting_down:
            break
    service.stop()
    return 0


def _serve_line(service: AnalysisService, line: str) -> dict:
    try:
        request = decode_request(line)
    except ProtocolError as exc:
        return error_response(
            exc.request_id, exc.code, str(exc), trace_id=exc.trace_id
        )
    return service.queue.call(request)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                raw = self.rfile.readline()
            except (OSError, ValueError):
                return
            if not raw:
                return
            line = raw.decode("utf-8", "replace")
            if not line.strip():
                continue
            response = _serve_line(service, line)
            try:
                self.wfile.write(encode_line(response).encode("utf-8"))
                self.wfile.flush()
            except (OSError, ValueError):
                return
            if service.shutting_down:
                self.server.begin_shutdown()  # type: ignore[attr-defined]
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """TCP transport: threaded connections, one shared fair scheduler."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: AnalysisService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()

    @property
    def address(self) -> "tuple[str, int]":
        host, port = self.server_address[:2]
        return host, port

    def begin_shutdown(self) -> None:
        """Idempotent async shutdown (callable from handler threads)."""
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_until_shutdown(self) -> int:
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.service.stop()
            self.server_close()
        return 0


def serve_tcp(
    service: AnalysisService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind (port 0 = ephemeral) and return the server; the caller runs
    :meth:`ServiceServer.serve_until_shutdown` (or drives it in a thread)."""
    return ServiceServer(service, host=host, port=port)
