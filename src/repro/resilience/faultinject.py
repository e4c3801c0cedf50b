"""Deterministic fault injection for the analysis pipeline.

Every pipeline stage carries a named injection site (the call is a no-op
unless a plan is active, so the hot path pays one global read):

========== ==========================================================
site       where it fires
========== ==========================================================
parse      :func:`repro.golang.parser.parse_file`
ssa-build  :func:`repro.ssa.builder.build_program` (after parse)
encode     per suspicious group, before constraint encoding
solve      per suspicious group, before the decision procedure
cache-read :meth:`repro.engine.cache.ResultCache.get`
cache-write :meth:`repro.engine.cache.ResultCache._store`
fix-apply  per GFix strategy attempt
validate   :func:`repro.fixer.validate.validate_patch`
service-request  per analysis-daemon request (:mod:`repro.service`)
fuzz-program  per generated program in a fuzz campaign (:mod:`repro.fuzz`)
fleet-supervisor  per daemon spawn and per post-unit checkpoint (:mod:`repro.fleet`)
fleet-dispatch  per unit dispatch, before the request leaves the driver
========== ==========================================================

A :class:`FaultPlan` is a list of rules parsed from a compact spec
(the ``REPRO_FAULTS`` env var or the ``--faults`` CLI knob)::

    solve:raise                  raise at every solve call
    solve@alpha:raise            ... only where the unit label contains 'alpha'
    solve:raise:n=3              ... only on the 3rd matching call
    parse:raise-transient:times=1  raise once, classified transient (retryable)
    cache-read:corrupt           corrupted-pickle behaviour instead of raising

Modes are ``raise``, ``raise-transient`` and ``corrupt``; options are
``n=`` and ``times=``. Rules are ``;``-separated. Call counts are kept
**per (rule, label)** — each analysis unit counts its own calls — so a
plan degrades the same shard whatever else the run analyzes and in
whatever order (the chaos suite depends on this).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: every named injection site, in pipeline order
FAULT_SITES: Tuple[str, ...] = (
    "parse",
    "ssa-build",
    "encode",
    "solve",
    "cache-read",
    "cache-write",
    "fix-apply",
    "validate",
    "service-request",
    "fuzz-program",
    "fleet-supervisor",
    "fleet-dispatch",
)

_MODES = ("raise", "raise-transient", "corrupt")

#: sentinel returned by :meth:`FaultPlan.fire` when the caller should
#: corrupt its payload instead of crashing
CORRUPT = "corrupt"


class FaultInjected(RuntimeError):
    """The injected failure; carries its site so incident records name the
    true origin even when a coarser firewall catches it."""

    def __init__(self, site: str, label: str = "", transient: bool = False):
        super().__init__(f"injected fault at {site}" + (f" [{label}]" if label else ""))
        self.site = site
        self.label = label
        self.transient = transient


@dataclass
class FaultRule:
    """One parsed rule of a plan."""

    site: str
    label: str = ""  # substring match against the call-site label; '' matches all
    mode: str = "raise"  # 'raise' | 'raise-transient' | 'corrupt'
    n: Optional[int] = None  # fire only on the nth matching call (1-based)
    times: Optional[int] = None  # fire at most this many times


def _parse_rule(text: str) -> FaultRule:
    tokens = [t.strip() for t in text.strip().split(":") if t.strip()]
    if not tokens:
        raise ValueError("empty fault rule")
    head = tokens[0]
    site, _, label = head.partition("@")
    if site not in FAULT_SITES:
        raise ValueError(
            f"unknown fault site {site!r}; valid sites: {', '.join(FAULT_SITES)}"
        )
    rule = FaultRule(site=site, label=label)
    rest = tokens[1:]
    if rest and "=" not in rest[0]:
        rule.mode = rest.pop(0)
        if rule.mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {rule.mode!r}; valid modes: {', '.join(_MODES)}"
            )
    for option in rest:
        key, _, value = option.partition("=")
        if not value:
            raise ValueError(f"malformed fault option {option!r} (want key=value)")
        if key == "n":
            rule.n = int(value)
        elif key == "times":
            rule.times = int(value)
        else:
            raise ValueError(f"unknown fault option {key!r} (n/times)")
    return rule


class FaultPlan:
    """A set of rules plus the per-(rule, label) call counters."""

    def __init__(self, rules: List[FaultRule]):
        self.rules = rules
        self._counts: Dict[Tuple[int, str], int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules = [_parse_rule(part) for part in spec.split(";") if part.strip()]
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no rules")
        return cls(rules)

    def fire(self, site: str, label: str = "") -> Optional[str]:
        """Evaluate every rule against one call; raises, or returns
        :data:`CORRUPT` when the caller should corrupt its own payload."""
        action: Optional[str] = None
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.label and rule.label not in label:
                continue
            with self._lock:
                key = (index, label)
                count = self._counts[key] = self._counts.get(key, 0) + 1
                if rule.n is not None and count != rule.n:
                    continue
                if rule.times is not None and self._fired.get(index, 0) >= rule.times:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
            if rule.mode == "corrupt":
                action = CORRUPT
            else:
                raise FaultInjected(
                    site, label, transient=rule.mode == "raise-transient"
                )
        return action


# -- activation --------------------------------------------------------------

#: the process-wide active plan; threads share it (counters are
#: lock-protected)
_PLAN: Optional[FaultPlan] = None


def activate(plan: Optional[FaultPlan]) -> None:
    global _PLAN
    _PLAN = plan


def deactivate() -> None:
    activate(None)


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextmanager
def injected(spec_or_plan) -> Iterator[FaultPlan]:
    """Scoped activation — the chaos suite's workhorse::

        with injected("solve@alpha:raise"):
            result = run_gcatch(program)
    """
    plan = (
        spec_or_plan
        if isinstance(spec_or_plan, FaultPlan)
        else FaultPlan.parse(spec_or_plan)
    )
    previous = _PLAN
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


def maybe_fault(site: str, label: str = "") -> bool:
    """The per-site hook every pipeline stage calls. No-op (one global
    read) without an active plan. Returns True when the caller should
    corrupt its payload; raises :class:`FaultInjected` for raise rules."""
    plan = _PLAN
    if plan is None:
        return False
    return plan.fire(site, label) == CORRUPT


def plan_from_env() -> Optional[FaultPlan]:
    """A plan from ``REPRO_FAULTS``, else None."""
    spec = os.environ.get("REPRO_FAULTS")
    return FaultPlan.parse(spec) if spec else None
