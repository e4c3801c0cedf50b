"""repro.resilience — crash isolation, one retry, fault injection.

The paper's evaluation only exists because GCatch survives real-world
codebases: it runs under per-package time budgets and keeps going when an
individual analysis blows up. This package is that survival layer for the
reproduction:

* :mod:`repro.resilience.incidents` — the structured :class:`Incident`
  record a crash degrades into, plus run-health classification;
* :mod:`repro.resilience.firewall` — the exception firewall that converts
  crashes into incidents and retries a transient failure exactly once,
  wherever it runs;
* :mod:`repro.resilience.faultinject` — named injection sites threaded
  through every pipeline stage, activated by a deterministic
  :class:`FaultPlan` (``--faults`` / ``REPRO_FAULTS``), which the chaos
  suite uses to prove every degradation path actually works.
"""

from repro.resilience.faultinject import (
    CORRUPT,
    FAULT_SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    deactivate,
    injected,
    maybe_fault,
    plan_from_env,
)
from repro.resilience.firewall import MAX_RETRIES, Firewall, Guarded, is_transient
from repro.resilience.incidents import (
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_OK,
    Incident,
    incidents_to_json,
    make_incident,
    overall_health,
)

__all__ = [
    "CORRUPT",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "Firewall",
    "Guarded",
    "HEALTH_DEGRADED",
    "HEALTH_FAILED",
    "HEALTH_OK",
    "Incident",
    "MAX_RETRIES",
    "activate",
    "active_plan",
    "deactivate",
    "incidents_to_json",
    "injected",
    "is_transient",
    "make_incident",
    "maybe_fault",
    "overall_health",
    "plan_from_env",
]
