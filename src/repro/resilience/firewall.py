"""The exception firewall: crashes become incidents, transient ones retry.

One :class:`Firewall` guards one run. Call :meth:`Firewall.call` around an
isolation unit (an engine shard, a cache probe, a GFix strategy) and a
crash inside it is converted into a structured
:class:`~repro.resilience.incidents.Incident` instead of propagating —
completed units are always kept.

Every firewall retries a transient failure (cache I/O, an injected
transient fault) exactly once (:data:`MAX_RETRIES`), at once and with no
sleep; everything else fails fast into an incident. The engine's shards
and cache probes, fuzz programs, daemon requests, GFix strategies and
patch validation all run behind this one rule.

Observability counters: ``resilience.incident`` (one per final failure),
``resilience.retry`` (one per re-attempt) and ``resilience.gave-up`` (one
per unit whose retry failed too).
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.obs import NULL
from repro.resilience.faultinject import FaultInjected
from repro.resilience.incidents import Incident, make_incident

#: exception classes retried by default: I/O flakiness
TRANSIENT_TYPES = (OSError, EOFError, ConnectionError, pickle.PickleError)

#: re-attempts of a transient failure, at every firewall
MAX_RETRIES = 1


def is_transient(exc: BaseException) -> bool:
    """Is this failure class worth a bounded retry?"""
    if isinstance(exc, FaultInjected):
        return exc.transient
    return isinstance(exc, TRANSIENT_TYPES)


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

    def __init__(self, collector=None):
        self.collector = collector or NULL
        self.incidents: List[Incident] = []
        self._lock = threading.Lock()

    def call(
        self,
        fn: Callable[[], Any],
        site: str,
        label: str = "",
        reraise: tuple = (),
    ) -> Guarded:
        """Run ``fn`` behind the firewall.

        ``reraise`` names exception types that must propagate (control-flow
        exceptions like ``BudgetExceeded`` that the caller handles itself).
        ``KeyboardInterrupt``/``SystemExit`` always propagate.
        """
        attempt = 0
        while True:
            try:
                return Guarded(ok=True, value=fn())
            except reraise:
                raise
            except Exception as exc:  # noqa: BLE001 - the firewall's whole job
                if attempt < MAX_RETRIES and is_transient(exc):
                    if self.collector:
                        self.collector.count("resilience.retry")
                    attempt += 1
                    continue
                incident = make_incident(
                    site, label, exc, attempts=attempt + 1, transient=is_transient(exc)
                )
                with self._lock:
                    self.incidents.append(incident)
                if self.collector:
                    self.collector.count("resilience.incident")
                    if attempt > 0:
                        self.collector.count("resilience.gave-up")
                return Guarded(ok=False, incident=incident)
