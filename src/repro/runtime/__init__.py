"""MiniGo dynamic runtime: interpreter, schedulers, and the dynamic oracle.

* :mod:`repro.runtime.scheduler` — seeded random scheduling (the paper's
  sampling validation) and trace replay;
* :mod:`repro.runtime.explorer` — bounded systematic schedule enumeration
  with sleep-set partial-order pruning, stopping at the first leaking run
  unless the caller asks for every outcome;
* :mod:`repro.runtime.checkpoint` — interpreter checkpoints the explorer
  resumes sibling runs from;
* :mod:`repro.runtime.choices` — the choice-policy abstraction both share.
"""

from repro.runtime.choices import Choice, ChoicePolicy, RandomPolicy, ReplayDivergence, ReplayPolicy
from repro.runtime.explorer import (
    Exploration,
    explore,
    independent,
    outcome_signature,
    step_footprint,
)
from repro.runtime.scheduler import (
    ExecutionResult,
    LeakedGoroutine,
    explore_schedules,
    replay_trace,
    run_program,
)

__all__ = [
    "Choice",
    "ChoicePolicy",
    "ExecutionResult",
    "Exploration",
    "LeakedGoroutine",
    "RandomPolicy",
    "ReplayDivergence",
    "ReplayPolicy",
    "explore",
    "explore_schedules",
    "independent",
    "outcome_signature",
    "replay_trace",
    "run_program",
    "step_footprint",
]
