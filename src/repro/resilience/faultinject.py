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
    encode:stall:ms=25           stall 25 ms at encode
    solve:raise:p=0.5            seeded coin flip per call (REPRO_FAULT_SEED)

Rules are ``;``-separated. Call counts are kept **per (rule, label)** —
each analysis unit counts its own calls — so a plan degrades the same
shard whatever else the run analyzes and in whatever order (the chaos
suite depends on this). Probabilistic rules hash
``(seed, site, label, count)`` instead of drawing from shared RNG state,
which keeps them order-independent too.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
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

_MODES = ("raise", "raise-transient", "corrupt", "stall")

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
    mode: str = "raise"  # 'raise' | 'raise-transient' | 'corrupt' | 'stall'
    n: Optional[int] = None  # fire only on the nth matching call (1-based)
    times: Optional[int] = None  # fire at most this many times
    ms: float = 0.0  # stall duration
    p: Optional[float] = None  # seeded per-call probability

    def render(self) -> str:
        parts = [self.site + (f"@{self.label}" if self.label else ""), self.mode]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.times is not None:
            parts.append(f"times={self.times}")
        if self.ms:
            parts.append(f"ms={self.ms:g}")
        if self.p is not None:
            parts.append(f"p={self.p:g}")
        return ":".join(parts)


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
        elif key == "ms":
            rule.ms = float(value)
        elif key == "p":
            rule.p = float(value)
        else:
            raise ValueError(f"unknown fault option {key!r} (n/times/ms/p)")
    return rule


class FaultPlan:
    """A set of rules plus the per-(rule, label) call counters."""

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules = rules
        self.seed = seed
        self._counts: Dict[Tuple[int, str], int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        rules = [_parse_rule(part) for part in spec.split(";") if part.strip()]
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no rules")
        return cls(rules, seed=seed)

    def render(self) -> str:
        return ";".join(rule.render() for rule in self.rules)

    def _coin(self, rule_index: int, site: str, label: str, count: int, p: float) -> bool:
        payload = f"{self.seed}:{rule_index}:{site}:{label}:{count}"
        digest = hashlib.sha256(payload.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < p

    def fire(self, site: str, label: str = "") -> Optional[str]:
        """Evaluate every rule against one call; raises, stalls, or returns
        :data:`CORRUPT` when the caller should corrupt its own payload."""
        action: Optional[str] = None
        stall_ms = 0.0
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
                if rule.p is not None and not self._coin(index, site, label, count, rule.p):
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
            if rule.mode == "stall":
                stall_ms = max(stall_ms, rule.ms)
            elif rule.mode == "corrupt":
                action = CORRUPT
            else:
                raise FaultInjected(
                    site, label, transient=rule.mode == "raise-transient"
                )
        if stall_ms:
            time.sleep(stall_ms / 1000.0)
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
def injected(spec_or_plan, seed: int = 0) -> Iterator[FaultPlan]:
    """Scoped activation — the chaos suite's workhorse::

        with injected("solve@alpha:raise"):
            result = run_gcatch(program)
    """
    plan = (
        spec_or_plan
        if isinstance(spec_or_plan, FaultPlan)
        else FaultPlan.parse(spec_or_plan, seed=seed)
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
    """A plan from ``REPRO_FAULTS`` (seeded by ``REPRO_FAULT_SEED``), else None."""
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return None
    try:
        seed = int(os.environ.get("REPRO_FAULT_SEED", "") or 0)
    except ValueError:
        seed = 0
    return FaultPlan.parse(spec, seed=seed)
