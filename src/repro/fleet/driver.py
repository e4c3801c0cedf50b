"""The fleet driver: dispatch work units to daemons, checkpoint, aggregate.

Placement is **least-loaded by construction**: one driver thread per
daemon pulls the next unit from a shared plan-ordered queue the moment
its daemon is free, so a slow unit on one daemon never idles the others
(classic work-queue scheduling — no load estimator to get wrong).

Per-attempt failure handling, in order of escalation:

* an error response (a crashed request, an in-queue deadline) is retried
  until the unit has made ``MAX_ATTEMPTS`` dispatch attempts, then
  recorded as a failed unit — the daemons run without ``--max-queue``
  and each serves one driver thread, so none ever sheds;
* a dead or *stalled* daemon — connection refused, connection lost, or a
  unit exceeding ``straggler_timeout`` with no response — is killed and
  restarted at once (the supervisor bounds the spawn retries), and the
  unit is re-dispatched (straggler re-dispatch and crash recovery are the
  same code path: the attempt is abandoned, the unit re-queued).

Completed units append to the :class:`~repro.fleet.manifest.SweepManifest`
*before* the supervisor checkpoint fires, so a sweep killed at a
checkpoint has every finished unit on disk and a resume re-runs only the
rest. Outcomes are the deterministic payload slice
(:mod:`repro.fleet.report`), which is what makes fleet == serial ==
killed-and-resumed byte-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fleet.manifest import SweepManifest
from repro.fleet.plan import SweepPlan, WorkUnit
from repro.fleet.report import (
    aggregate,
    merge_telemetry,
    outcome_from_detect,
    outcome_from_fuzz,
)
from repro.fleet.supervisor import FleetSupervisor, SupervisorError
from repro.obs.journal import TelemetryJournal, request_record
from repro.resilience.faultinject import FaultInjected, maybe_fault
from repro.service.client import ServiceConnectionError, ServiceRequestError
from repro.service.protocol import is_error

#: dispatch attempts per unit before it is recorded as failed
MAX_ATTEMPTS = 3


class SweepKilled(RuntimeError):
    """The sweep aborted at a supervisor checkpoint (chaos or operator
    kill). Completed units are on the manifest; resume picks them up."""


@dataclass
class FleetResult:
    """Everything a sweep produced, deterministic and not."""

    plan: SweepPlan
    outcomes: Dict[str, dict] = field(default_factory=dict)
    metas: Dict[str, dict] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)  # uid -> reason
    restarts: int = 0
    incidents: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def report(self) -> dict:
        return aggregate(self.plan, self.outcomes)

    def telemetry(self) -> dict:
        return merge_telemetry(
            self.metas,
            self.elapsed_seconds,
            restarts=self.restarts,
            incidents=len(self.incidents),
        )

    def complete(self) -> bool:
        return len(self.outcomes) == len(self.plan.units)


def run_sweep(
    plan: SweepPlan,
    daemons: int = 1,
    mode: str = "thread",
    manifest_path: Optional[str] = None,
    workers: int = 1,
    deadline_seconds: Optional[float] = None,
    straggler_timeout: Optional[float] = None,
    journal_path: Optional[str] = None,
    supervisor: Optional[FleetSupervisor] = None,
) -> FleetResult:
    """Sweep ``plan`` across ``daemons`` daemon processes/threads.

    Passing an already-started ``supervisor`` hands over daemon
    lifecycle to the caller (tests use this to pre-crash daemons); by
    default the driver owns one sized ``daemons`` and tears it down.
    """
    if not plan.units:
        raise ValueError("empty sweep plan")
    manifest = SweepManifest(manifest_path) if manifest_path else None
    journal = TelemetryJournal(journal_path) if journal_path else None
    result = FleetResult(plan=plan)
    started = time.perf_counter()

    # resume: replay checkpointed outcomes whose fingerprints still match
    pending: List[WorkUnit] = []
    for unit in plan.units:
        reusable = manifest.reusable_outcome(unit.uid, unit.fingerprint) if manifest else None
        if reusable is not None:
            result.outcomes[unit.uid] = reusable
            result.metas[unit.uid] = {"skipped": True}
        else:
            pending.append(unit)

    own_supervisor = supervisor is None
    if own_supervisor:
        seed_path = plan.units[0].path or _fuzz_seed_path(manifest_path)
        supervisor = FleetSupervisor(
            daemons, seed_path, mode=mode, workers=workers
        ).start()
    assert supervisor is not None

    lock = threading.Lock()
    attempts: Dict[str, int] = {}
    fatal: List[BaseException] = []

    def next_unit() -> Optional[WorkUnit]:
        with lock:
            if fatal:
                return None
            return pending.pop(0) if pending else None

    def requeue(unit: WorkUnit, reason: str) -> None:
        with lock:
            attempts[unit.uid] = attempts.get(unit.uid, 0) + 1
            if attempts[unit.uid] >= MAX_ATTEMPTS:
                result.failed[unit.uid] = reason
                if manifest:
                    manifest.record_unit(
                        unit.uid, unit.fingerprint, ok=False, outcome=None,
                        meta={"error": reason},
                    )
            else:
                pending.append(unit)

    def worker(name: str) -> None:
        while True:
            unit = next_unit()
            if unit is None:
                return
            unit_started = time.perf_counter()
            try:
                response = _dispatch(supervisor, name, unit)
            except ServiceRequestError as exc:
                # tenant registration rejected — a request-level failure,
                # not a daemon death: count the attempt and requeue
                requeue(unit, str(exc))
                continue
            except (ServiceConnectionError, FaultInjected) as exc:
                # dead daemon, stalled unit (socket timeout), or chaos:
                # same recovery — fresh daemon, unit back on the queue
                result.incidents.append(f"{unit.uid} on {name}: {exc}")
                try:
                    supervisor.kill(name)
                    supervisor.restart(name, reason=str(exc))
                except SupervisorError as dead:
                    with lock:
                        fatal.append(dead)
                    return
                requeue(unit, f"daemon failure: {exc}")
                continue
            elapsed = time.perf_counter() - unit_started
            if is_error(response):
                error = response["error"]
                reason = f"[{error.get('code')}] {error.get('message')}"
                requeue(unit, reason)
                _journal_unit(journal, unit, name, "error", elapsed)
                continue
            payload = response.get("result") or {}
            outcome = (
                outcome_from_detect(payload)
                if unit.kind == "project"
                else outcome_from_fuzz(payload)
            )
            meta = {
                "daemon": name,
                "attempts": attempts.get(unit.uid, 0) + 1,
                "elapsed_seconds": round(elapsed, 6),
            }
            if unit.kind == "project":
                meta["cache"] = {
                    "hits": payload.get("shards", {}).get("cached", 0),
                    "misses": payload.get("shards", {}).get("executed", 0),
                }
            with lock:
                result.outcomes[unit.uid] = outcome
                result.metas[unit.uid] = meta
            if manifest:
                manifest.record_unit(
                    unit.uid, unit.fingerprint, ok=True, outcome=outcome, meta=meta
                )
            _journal_unit(journal, unit, name, "ok", elapsed, outcome)
            try:
                supervisor.checkpoint(unit.uid)
            except FaultInjected as exc:
                with lock:
                    fatal.append(SweepKilled(str(exc)))
                return

    def _dispatch(sup: FleetSupervisor, name: str, unit: WorkUnit) -> dict:
        """One dispatch attempt; returns the response. Raises
        ServiceConnectionError/FaultInjected for daemon-level failure."""
        maybe_fault("fleet-dispatch", unit.uid)
        client = sup.client(name)
        if unit.kind == "project":
            if not sup.is_registered(name, unit.uid):
                client.result("register", {"tenant": unit.uid, "path": unit.path})
                sup.mark_registered(name, unit.uid)
            params = {}
            if deadline_seconds is not None:
                params["deadline_seconds"] = deadline_seconds
            return client.call("detect", params, tenant=unit.uid)
        return client.call(
            "fuzz", {"seed": unit.seed, "start": unit.start, "count": unit.count}
        )

    if straggler_timeout is not None:
        supervisor.request_timeout = straggler_timeout

    threads = [
        threading.Thread(target=worker, args=(name,), name=f"fleet-driver-{name}")
        for name in list(supervisor.daemons)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if own_supervisor:
            supervisor.stop()
    result.restarts = supervisor.restarts()
    result.incidents.extend(supervisor.incidents)
    result.elapsed_seconds = time.perf_counter() - started
    if fatal:
        raise fatal[0]
    return result


def _journal_unit(
    journal: Optional[TelemetryJournal],
    unit: WorkUnit,
    daemon: str,
    outcome: str,
    elapsed: float,
    payload: Optional[dict] = None,
) -> None:
    if journal is None:
        return
    record = request_record(
        trace_id=f"fleet-{unit.uid}",
        method="fleet-unit",
        outcome=outcome,
        elapsed_seconds=elapsed,
        tenant=unit.uid,
        reports=len(payload.get("reports", [])) if payload else None,
        code=payload.get("code") if payload else None,
    )
    record["daemon"] = daemon
    journal.append(record)


def _fuzz_seed_path(manifest_path: Optional[str]) -> str:
    """Fuzz sweeps need a daemon seed project; write a trivial one next
    to the manifest (or in a temp dir) — it is never analyzed."""
    import os
    import tempfile

    base = (
        os.path.dirname(os.path.abspath(manifest_path))
        if manifest_path
        else tempfile.mkdtemp(prefix="repro-fleet-")
    )
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, "fleet-seed.go")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("package main\n\nfunc main() {\n}\n")
    return path


# ---------------------------------------------------------------------------
# the serial reference


def serial_sweep(plan: SweepPlan) -> FleetResult:
    """The one-shot reference: every unit, in plan order, in-process.

    Project units run through a real :class:`AnalysisService` (same
    handler code the daemons run, no sockets); fuzz units through
    :func:`repro.fuzz.campaign.run_campaign` shards. The fleet parity
    suite asserts ``canonical_bytes`` equality against this.
    """
    from repro.service.daemon import AnalysisService

    if not plan.units:
        raise ValueError("empty sweep plan")
    result = FleetResult(plan=plan)
    started = time.perf_counter()
    service = None
    project_units = [u for u in plan.units if u.kind == "project"]
    if project_units:
        service = AnalysisService(project_units[0].path).start()
    try:
        for unit in plan.units:
            unit_started = time.perf_counter()
            if unit.kind == "project":
                assert service is not None
                service.call("register", {"tenant": unit.uid, "path": unit.path})
                response = service.call("detect", tenant=unit.uid)
                if is_error(response):
                    error = response["error"]
                    result.failed[unit.uid] = (
                        f"[{error.get('code')}] {error.get('message')}"
                    )
                    continue
                outcome = outcome_from_detect(response.get("result") or {})
            else:
                from repro.fuzz.campaign import run_campaign

                report = run_campaign(unit.seed, unit.count, start=unit.start)
                outcome = outcome_from_fuzz(
                    {
                        "triages": [t.to_dict() for t in report.triages],
                        "unexplained": len(report.unexplained()),
                        "crashes": len(report.crashes()),
                    }
                )
            result.outcomes[unit.uid] = outcome
            result.metas[unit.uid] = {
                "daemon": "serial",
                "attempts": 1,
                "elapsed_seconds": round(time.perf_counter() - unit_started, 6),
            }
    finally:
        if service is not None:
            service.stop()
    result.elapsed_seconds = time.perf_counter() - started
    return result


__all__ = ["FleetResult", "SweepKilled", "run_sweep", "serial_sweep"]
