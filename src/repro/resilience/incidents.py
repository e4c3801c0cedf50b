"""Structured crash records and run-health classification.

A crash that the firewall intercepts becomes one :class:`Incident` — a
plain-data record of *where* the pipeline degraded (the firewall site and
the unit's label), *what* was raised (exception class, message, a stable
traceback digest for dedup across runs) and *how hard* the firewall tried
(attempt count, transient classification). Incidents are plain data:
picklable, and JSON-serializable so they ride in the ``repro.obs/2``
stats payload as the optional ``incidents`` block.

Run health is a three-valued verdict over one run's incidents:

* ``ok`` — no incidents; every analysis unit completed;
* ``degraded`` — some units crashed or were retried, but the run produced
  results for every other unit (the default operating mode);
* ``failed`` — nothing survived: every unit crashed, or a pipeline-level
  failure (parse, SSA build, detector init) prevented analysis entirely.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_FAILED = "failed"


@dataclass
class Incident:
    """One intercepted crash, degraded into data."""

    site: str  # firewall/injection site, e.g. 'solve', 'shard', 'cache-read'
    label: str  # the unit: primitive repr, checker name, strategy, filename
    exception: str  # exception class name
    message: str  # str(exc), truncated
    digest: str  # stable traceback digest (dedup key across runs)
    attempts: int = 1  # how many times the firewall ran the unit
    transient: bool = False  # classified retryable
    frames: List[str] = field(default_factory=list)  # summarized traceback

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "label": self.label,
            "exception": self.exception,
            "message": self.message,
            "digest": self.digest,
            "attempts": self.attempts,
            "transient": self.transient,
        }

    def render(self) -> str:
        retry = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"[{self.site}] {self.label or '-'}: {self.exception}: "
            f"{self.message} (digest {self.digest}{retry})"
        )


def _digest_of(exc: BaseException, frames: List[str]) -> str:
    """A short, stable identity for one crash shape: exception class plus
    the in-repo frame summary — equal crashes collapse to equal digests
    regardless of timing, pids or memory addresses."""
    payload = "\n".join([type(exc).__name__, *frames])
    return hashlib.sha256(payload.encode("utf-8", "replace")).hexdigest()[:12]


def make_incident(
    site: str,
    label: str,
    exc: BaseException,
    attempts: int = 1,
    transient: bool = False,
) -> Incident:
    """Build an :class:`Incident` from a live exception.

    When the exception carries its own injection ``site`` (a
    :class:`repro.resilience.faultinject.FaultInjected`), that names the
    incident — the firewall site is only the fallback — so a fault
    injected at ``solve`` is reported at ``solve`` even though the
    firewall that caught it wraps the whole shard.
    """
    frames = [
        f"{frame.name}@{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
        for frame in traceback.extract_tb(exc.__traceback__)[-5:]
    ]
    message = str(exc)
    if len(message) > 200:
        message = message[:197] + "..."
    return Incident(
        site=getattr(exc, "site", None) or site,
        label=label,
        exception=type(exc).__name__,
        message=message,
        digest=_digest_of(exc, frames),
        attempts=attempts,
        transient=transient,
        frames=frames,
    )


def overall_health(
    incidents: List[Incident],
    shards: Optional[int] = None,
    failed_shards: int = 0,
) -> str:
    """Classify a run: ``ok`` / ``degraded`` / ``failed``.

    ``shards``/``failed_shards`` count the run's isolation units (engine
    shards). A run with incidents but surviving shards is ``degraded``; a
    run where every shard failed — or that had incidents while producing
    no shards at all (a pipeline-level crash before sharding) — is
    ``failed``.
    """
    if not incidents:
        return HEALTH_OK
    if not shards or failed_shards >= shards:
        return HEALTH_FAILED
    return HEALTH_DEGRADED


def incidents_to_json(incidents: List[Incident]) -> List[dict]:
    return [incident.to_json() for incident in incidents]
