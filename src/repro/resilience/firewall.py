"""The exception firewall: crashes become incidents, transient ones retry.

One :class:`Firewall` guards one run. Call :meth:`Firewall.call` around an
isolation unit (an engine shard, a cache probe, a GFix strategy) and a
crash inside it is converted into a structured
:class:`~repro.resilience.incidents.Incident` instead of propagating —
completed units are always kept.

Retries are bounded and deterministic: transient failure classes (cache
I/O, injected-transient faults) are re-attempted up to
``RetryPolicy.max_retries`` times with a fixed exponential backoff
schedule (``backoff_base * 2**attempt`` seconds — no jitter, so runs are
reproducible). Everything else fails fast into an incident.

Observability counters: ``resilience.incident`` (one per final failure),
``resilience.retry`` (one per re-attempt) and ``resilience.gave-up`` (one
per unit whose retries were exhausted).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.obs import NULL
from repro.resilience.faultinject import FaultInjected
from repro.resilience.incidents import Incident, make_incident

#: exception classes retried by default: I/O flakiness
TRANSIENT_TYPES = (OSError, EOFError, ConnectionError, pickle.PickleError)


def is_transient(exc: BaseException) -> bool:
    """Is this failure class worth a bounded retry?"""
    if isinstance(exc, FaultInjected):
        return exc.transient
    return isinstance(exc, TRANSIENT_TYPES)


@dataclass
class RetryPolicy:
    """Bounded, deterministic retry configuration."""

    max_retries: int = 1
    backoff_base: float = 0.0  # seconds; attempt k waits base * 2**k
    retry_all: bool = False  # retry every exception class, not just transient

    def retries_for(self, exc: BaseException) -> int:
        if self.retry_all or is_transient(exc):
            return max(0, self.max_retries)
        return 0

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (2**attempt)


@dataclass
class Guarded:
    """Outcome of one firewalled call: the value or the incident."""

    ok: bool
    value: Any = None
    incident: Optional[Incident] = None


class Firewall:
    """Run-scoped crash isolation with incident accounting.

    Thread-safe: the daemon's request workers report into one firewall.
    ``incidents`` accumulates in recording order.
    """

    def __init__(self, collector=None, policy: Optional[RetryPolicy] = None):
        self.collector = collector or NULL
        self.policy = policy or RetryPolicy()
        self.incidents: List[Incident] = []
        self._lock = threading.Lock()

    def record(self, incident: Incident) -> None:
        """Admit an incident built by a ``record=False`` call into this
        run's ledger."""
        with self._lock:
            self.incidents.append(incident)
        if self.collector:
            self.collector.count("resilience.incident")

    def call(
        self,
        fn: Callable[[], Any],
        site: str,
        label: str = "",
        reraise: tuple = (),
        record: bool = True,
    ) -> Guarded:
        """Run ``fn`` behind the firewall.

        ``reraise`` names exception types that must propagate (control-flow
        exceptions like ``BudgetExceeded`` that the caller handles itself).
        ``KeyboardInterrupt``/``SystemExit`` always propagate.
        ``record=False`` builds the incident without admitting it to the
        ledger — the engine defers recording to its reassembly loop so
        incidents land in shard order.
        """
        attempt = 0
        while True:
            try:
                return Guarded(ok=True, value=fn())
            except reraise:
                raise
            except Exception as exc:  # noqa: BLE001 - the firewall's whole job
                retries = self.policy.retries_for(exc)
                if attempt < retries:
                    if self.collector:
                        self.collector.count("resilience.retry")
                    delay = self.policy.backoff(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                incident = make_incident(
                    site, label, exc, attempts=attempt + 1, transient=is_transient(exc)
                )
                if record:
                    self.record(incident)
                if self.collector and attempt > 0:
                    self.collector.count("resilience.gave-up")
                return Guarded(ok=False, incident=incident)
