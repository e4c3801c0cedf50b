"""Per-tenant round-robin request scheduler with a worker pool.

One FIFO behind one worker would serialize *everything*; this scheduler
keeps what makes that design sound — per-tenant analysis state stays
single-writer — while letting independent tenants run concurrently and
none of them starve:

* **per-tenant FIFOs drained round-robin**: each tenant owns one queue,
  and the tenants with queued work take turns, one request per turn, so
  one flooding tenant queues behind itself, not in front of everyone
  else — a quiet tenant waits at most one round;
* **per-tenant in-flight serialization**: a tenant with a request
  running is skipped by the ring, so its resident
  :class:`~repro.service.project.ProjectState`, fingerprints and health
  are only ever touched by one worker at a time — concurrency lives
  *across* tenants, determinism *within* one;
* **one queue bound** (``max_queue``): checked under the lock at submit
  time, so the bound is exact; a request that would exceed it is
  answered ``OVERLOADED`` with a ``retry_after`` hint instead of queued.
  Operational methods (:data:`SHED_EXEMPT`) are never shed, and a shed
  request already past its deadline is answered ``DEADLINE_EXCEEDED``
  instead (a shed invites a retry, an expired deadline must not);
* **deadlines**: submit-relative; a request that waits out its deadline
  is answered ``DEADLINE_EXCEEDED`` at dispatch, without running;
* **drain-on-stop**: :meth:`stop` answers every still-queued request
  with ``SHUTTING_DOWN`` *immediately* — in-flight requests complete,
  queued ones are not run — so shutdown latency is one request, not one
  queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.obs import NULL, Collector
from repro.service.protocol import (
    DEADLINE_EXCEEDED,
    OVERLOADED,
    SHUTTING_DOWN,
    Request,
    error_response,
)

#: methods the queue bound never sheds: the daemon must stay observable,
#: registerable and stoppable under overload
SHED_EXEMPT = frozenset(
    {
        "ping",
        "health",
        "metrics",
        "metrics_text",
        "stats",
        "register",
        "tenants",
        "shutdown",
    }
)


@dataclass
class _Pending:
    request: Request
    future: "Future[dict]"
    enqueued: float  # monotonic submit time

    def expired(self, now: float) -> bool:
        deadline = self.request.deadline_seconds
        return deadline is not None and (now - self.enqueued) > deadline


class FairScheduler:
    """Worker pool + per-tenant round-robin queues; ``handler(Request) -> dict``.

    ``max_queue`` bounds the queued (not in-flight) requests; ``None`` is
    unbounded. ``admit(request)`` (optional) runs under the scheduler
    lock before the request is queued and returns ``None`` to admit or a
    complete response dict to reject; ``on_reject(request, response)``
    (optional) runs outside the lock for every request answered without
    being served (rejections, sheds, dispatch-time deadline expiry,
    shutdown flushes) so the daemon can journal them.
    """

    def __init__(
        self,
        handler: Callable[[Request], dict],
        workers: int = 1,
        collector: Optional[Collector] = None,
        max_queue: Optional[int] = None,
        admit: Optional[Callable[[Request], Optional[dict]]] = None,
        on_reject: Optional[Callable[[Request, dict], None]] = None,
    ):
        self.handler = handler
        self.workers = max(1, int(workers))
        self.collector = collector or NULL
        self.max_queue = max_queue
        self.admit = admit
        self.on_reject = on_reject
        self._cond = threading.Condition()
        #: tenant id -> its queued requests; only tenants with queued work,
        #: so ids that a client makes up cannot grow the map
        self._queues: Dict[str, Deque[_Pending]] = {}
        #: rotation order: the keys of ``_queues``
        self._ring: Deque[str] = deque()
        self._busy: set = set()  # tenants with a request in flight
        self._depth = 0  # queued (not in-flight) requests
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self.sheds = 0
        #: exponentially-weighted mean analysis-request duration, fed by
        #: :meth:`observe`; prices the ``retry_after`` hint of a shed
        self.ewma_seconds = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Drain-and-stop with the hardened semantics: requests already
        running complete; requests still queued are answered with a
        structured ``SHUTTING_DOWN`` error immediately (they are *not*
        run); new submits are refused."""
        with self._cond:
            self._stopping = True
            flushed = [p for queue in self._queues.values() for p in queue]
            self._queues.clear()
            self._ring.clear()
            self._depth = 0
            self._cond.notify_all()
        for pending in flushed:
            self._resolve_unserved(
                pending.request,
                error_response(
                    pending.request.id,
                    SHUTTING_DOWN,
                    "daemon is shutting down",
                    trace_id=pending.request.trace_id,
                ),
                pending.future,
            )
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- submission ---------------------------------------------------------

    def submit(self, request: Request) -> "Future[dict]":
        """Enqueue one request; the returned future resolves to its
        response dict (futures never carry exceptions — a handler crash
        is already a structured error response by the time it lands)."""
        submitted = time.monotonic()
        future: "Future[dict]" = Future()
        rejection: Optional[dict] = None
        with self._cond:
            if self._stopping:
                rejection = error_response(
                    request.id,
                    SHUTTING_DOWN,
                    "daemon is shutting down",
                    trace_id=request.trace_id,
                )
            elif self.admit is not None:
                rejection = self.admit(request)
            if rejection is None:
                # under the lock on purpose: the bound must see the exact
                # queue state, or two bursts race past it
                rejection = self._shed_locked(request, submitted)
            if rejection is None:
                queue = self._queues.get(request.tenant)
                if queue is None:
                    queue = self._queues[request.tenant] = deque()
                    self._ring.append(request.tenant)
                queue.append(
                    _Pending(
                        request=request,
                        future=future,
                        enqueued=time.monotonic(),
                    )
                )
                self._depth += 1
                depth = self._depth
                self._cond.notify()
        if rejection is not None:
            self._resolve_unserved(request, rejection, future)
            return future
        if self.collector:
            self.collector.gauge("service.queue-depth", depth)
        return future

    def _shed_locked(self, request: Request, submitted: float) -> Optional[dict]:
        """The queue bound: ``None`` admits, else the shed (or, past its
        deadline, the expiry) response. Caller holds the lock."""
        if (
            self.max_queue is None
            or self._depth < self.max_queue
            or request.method in SHED_EXEMPT
        ):
            return None
        self.sheds += 1
        deadline = request.deadline_seconds
        if deadline is not None and (time.monotonic() - submitted) >= deadline:
            self.collector.count("service.deadline-exceeded")
            return error_response(
                request.id,
                DEADLINE_EXCEEDED,
                f"deadline of {deadline}s expired at admission",
                trace_id=request.trace_id,
            )
        return error_response(
            request.id,
            OVERLOADED,
            f"queue is full ({self._depth}/{self.max_queue} requests queued)",
            trace_id=request.trace_id,
            retry_after=max(0.1, (self._depth + 1) * self.ewma_seconds),
        )

    def call(self, request: Request, timeout: Optional[float] = None) -> dict:
        """Submit and wait: the synchronous convenience used by transports."""
        return self.submit(request).result(timeout=timeout)

    def observe(self, request: Request, seconds: float) -> None:
        """Feed one served request's duration into the EWMA that prices
        ``retry_after``; operational methods are not analysis work."""
        if request.method in SHED_EXEMPT:
            return
        with self._cond:
            if self.ewma_seconds == 0.0:
                self.ewma_seconds = seconds
            else:
                self.ewma_seconds += 0.2 * (seconds - self.ewma_seconds)

    # -- introspection ------------------------------------------------------

    def depths(self) -> Dict[str, int]:
        """Queued requests per tenant (snapshot, for metrics/tenants)."""
        with self._cond:
            return {tenant: len(queue) for tenant, queue in self._queues.items()}

    @property
    def depth(self) -> int:
        with self._cond:
            return self._depth

    # -- workers ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                pending = self._next_locked()
                while pending is None:
                    if self._stopping:
                        return
                    self._cond.wait()
                    pending = self._next_locked()
                tenant = pending.request.tenant
                self._busy.add(tenant)
                self._depth -= 1
            try:
                self._dispatch(pending)
            finally:
                with self._cond:
                    self._busy.discard(tenant)
                    # a parked teammate may now be able to take this
                    # tenant's next request (or any request at all)
                    self._cond.notify_all()

    def _next_locked(self) -> Optional[_Pending]:
        """Round-robin: the first tenant in the ring with no request in
        flight serves one request and, if it has more, goes to the back.
        Caller holds the lock."""
        ring = self._ring
        for _ in range(len(ring)):
            tenant = ring[0]
            if tenant in self._busy:
                ring.rotate(-1)
                continue
            queue = self._queues[tenant]
            pending = queue.popleft()
            if queue:
                ring.rotate(-1)
            else:
                ring.popleft()
                del self._queues[tenant]
            return pending
        return None

    def _dispatch(self, pending: _Pending) -> None:
        request = pending.request
        now = time.monotonic()
        request.queue_wait_seconds = max(0.0, now - pending.enqueued)
        if self.collector:
            self.collector.observe(
                "service.queue.wait_seconds", request.queue_wait_seconds
            )
            self.collector.observe(
                f"tenant.{request.tenant}.queue.wait_seconds",
                request.queue_wait_seconds,
            )
        if pending.expired(now):
            if self.collector:
                self.collector.count("service.deadline-exceeded")
            self._resolve_unserved(
                request,
                error_response(
                    request.id,
                    DEADLINE_EXCEEDED,
                    f"deadline of {request.deadline_seconds}s expired "
                    "while queued",
                    trace_id=request.trace_id,
                ),
                pending.future,
            )
            return
        try:
            response = self.handler(request)
        except BaseException as exc:  # the handler's own firewall failed
            response = error_response(
                request.id,
                SHUTTING_DOWN if self._stopping else -32603,
                f"handler error: {type(exc).__name__}: {exc}",
                trace_id=request.trace_id,
            )
        pending.future.set_result(response)

    def _resolve_unserved(
        self, request: Request, response: dict, future: "Future[dict]"
    ) -> None:
        """Answer a request that was never handed to the handler, then
        let the daemon journal it (outside the scheduler lock)."""
        future.set_result(response)
        if self.on_reject is not None:
            try:
                self.on_reject(request, response)
            except Exception:
                pass  # telemetry must never fail the response
