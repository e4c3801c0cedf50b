"""Choice policies: the single source of scheduling nondeterminism.

Every nondeterministic decision the runtime makes — which runnable
goroutine steps next, which ready ``select`` case commits — flows through a
:class:`ChoicePolicy`. The policy both *makes* the decision and *records*
it, so any execution (random or systematic) leaves behind a choice trace
that deterministically replays the identical schedule.

Three policies cover the repo's dynamic-oracle modes:

* :class:`RandomPolicy` — the paper's random-sleep-style sampling; draws
  from a seeded RNG exactly the way the pre-refactor scheduler did, so the
  schedule reached by ``seed=k`` is unchanged;
* :class:`ReplayPolicy` — replays a recorded trace, validating at every
  step that the set of options matches what was recorded;
* the explorer's directed policy (see :mod:`repro.runtime.explorer`) —
  forces a prefix, then extends it depth-first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Choice:
    """One recorded decision: ``index`` out of ``options`` alternatives."""

    kind: str  # 'sched' | 'select'
    options: int
    index: int


#: every ``Choice`` a policy has recorded, so that a trace shares one
#: immutable value per distinct decision instead of building one per pick.
#: Choices compare by value, so two threads that both build a missing
#: entry record equal choices.
_CHOICES: Dict[Tuple[str, int, int], Choice] = {}


def _choice(kind: str, options: int, index: int) -> Choice:
    key = (kind, options, index)
    choice = _CHOICES.get(key)
    if choice is None:
        choice = _CHOICES[key] = Choice(kind, options, index)
    return choice


class ReplayDivergence(Exception):
    """A replayed trace no longer matches the program's choice points."""


class ChoicePolicy:
    """Base class: subclasses decide, the base records."""

    def __init__(self) -> None:
        self.trace: List[Choice] = []

    def pick(self, kind: str, options: Sequence[Any], interp: Any) -> int:
        index = self._decide(kind, options, interp)
        self.trace.append(_choice(kind, len(options), index))
        return index

    def _decide(self, kind: str, options: Sequence[Any], interp: Any) -> int:
        raise NotImplementedError


class RandomPolicy(ChoicePolicy):
    """Seeded random choices, draw-for-draw compatible with the old RNG use.

    ``rng.choice(range(n))`` consumes the generator identically to the old
    ``rng.choice(seq)`` calls, so every seed reproduces the exact schedule
    it produced before policies existed.
    """

    def __init__(self, rng: random.Random):
        super().__init__()
        self.rng = rng

    def _decide(self, kind: str, options: Sequence[Any], interp: Any) -> int:
        return self.rng.choice(range(len(options)))


class ReplayPolicy(ChoicePolicy):
    """Deterministically re-issue a recorded choice trace."""

    def __init__(self, trace: Sequence[Choice]):
        super().__init__()
        self._replay = list(trace)
        self._pos = 0

    def _decide(self, kind: str, options: Sequence[Any], interp: Any) -> int:
        if self._pos >= len(self._replay):
            raise ReplayDivergence(
                f"trace exhausted after {self._pos} choices; "
                f"program wants another {kind!r} choice"
            )
        recorded = self._replay[self._pos]
        self._pos += 1
        if recorded.kind != kind or recorded.options != len(options):
            raise ReplayDivergence(
                f"choice {self._pos - 1}: recorded {recorded.kind}/"
                f"{recorded.options} options, program offers {kind}/{len(options)}"
            )
        if not 0 <= recorded.index < len(options):
            raise ReplayDivergence(f"choice {self._pos - 1}: index out of range")
        return recorded.index
