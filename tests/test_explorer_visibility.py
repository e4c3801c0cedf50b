"""The explorer's visibility check agrees with the footprint it skips.

A sched decision first asks whether each option's next step is visible,
and builds a footprint only where the answer is "yes" and something reads
it. The check (``_DirectedPolicy._visible``) answers from the
instruction's type where it can (``_visible_by_type``: ``_ALWAYS_VISIBLE``,
``Jump``, ``_CELLS_ONLY`` in an unshared env chain, defers and frame pops)
and falls back to :func:`step_footprint` elsewhere. These tests check:

* parity: at every sched decision of real searches, for every runnable
  goroutine, the check equals ``bool(step_footprint(...))`` — over the
  seed-0 pool, the explorer unit programs and the bug set;
* the type sets against the footprint table they summarise.
"""

import dataclasses

import pytest

from repro.corpus.bugset import build_bug_set
from repro.runtime import explorer
from repro.runtime.explorer import (
    _ALWAYS_VISIBLE,
    _CELLS_ONLY,
    _FOOTPRINT_RULES,
    _instr_footprint,
    _visible_by_type,
    explore,
    step_footprint,
)
from repro.runtime.interp import _HANDLERS
from repro.runtime.values import CancelFunc, Channel, ContextVal, Env, SliceVal, StructVal
from repro.ssa import ir
from repro.ssa.builder import build_program

from tests.test_explorer import RARE_RACE, TINY_RACE, TINY_SELECT
from tests.test_explorer_checkpoints import (
    POOL,
    SIBLING_SELECT,
    TIMER_SELECT,
    _explore_at_campaign_defaults,
    _pool_program,
)


# a call's result lands in a frame a closure captured: from the second
# call on, the frame pop that delivers it writes a shared cell
CALL_INTO_SHARED = """package main

func get() int {
	return 1
}

func main() {
	x := 0
	done := make(chan int)
	go func() {
		x = 2
		done <- 1
	}()
	for i := 0; i < 2; i++ {
		x = get()
	}
	<-done
	println(x)
}
"""


class _VisibilityProbe(explorer._DirectedPolicy):
    """Checks the shortcut against the footprint before every sched decision."""

    seen = {"shortcut": 0, "fallback": 0}
    mismatches = []

    def _decide(self, kind, options, interp):
        if kind == "sched":
            for goroutine in options:
                quick = _visible_by_type(goroutine)
                self.seen["fallback" if quick is None else "shortcut"] += 1
                want = bool(step_footprint(interp, goroutine))
                if self._visible(interp, goroutine) != want:
                    self.mismatches.append((len(self.trace), goroutine.gid, want))
        return super()._decide(kind, options, interp)


@pytest.fixture
def probe(monkeypatch):
    _VisibilityProbe.seen = {"shortcut": 0, "fallback": 0}
    _VisibilityProbe.mismatches = []
    monkeypatch.setattr(explorer, "_DirectedPolicy", _VisibilityProbe)
    return _VisibilityProbe


class TestVisibilityParity:
    def test_seed0_pool_at_campaign_defaults(self, probe):
        for index in range(POOL):
            program, entry = _pool_program(index)
            _explore_at_campaign_defaults(program, entry, every_outcome=True)
            assert probe.mismatches == [], f"program {index}"
        assert probe.seen["shortcut"] > probe.seen["fallback"] > 0

    @pytest.mark.parametrize(
        "source,options",
        [
            (TINY_RACE, {}),
            (RARE_RACE, {}),
            (TINY_SELECT, {}),
            (TIMER_SELECT, {}),
            (SIBLING_SELECT, {}),
            (CALL_INTO_SHARED, {}),
        ],
        ids=["tiny-race", "rare-race", "tiny-select", "timer-select", "sibling-select",
             "call-into-shared"],
    )
    def test_explorer_unit_programs(self, probe, source, options):
        exploration = explore(build_program(source, "unit.go"), every_outcome=True, **options)
        assert exploration.runs > 1
        assert probe.mismatches == []
        assert probe.seen["shortcut"] > 0

    def test_bug_set_at_explore_defaults(self, probe):
        for case in build_bug_set():
            program = build_program(case.source, case.case_id + ".go")
            explore(program, entry=case.driver or "main", every_outcome=True)
            assert probe.mismatches == [], case.case_id
        assert probe.seen["shortcut"] > probe.seen["fallback"] > 0


def _instruction_types():
    found, todo = set(), [ir.Instr]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub is not ir.Terminator:
                found.add(sub)
    return found


def _with_operands(kind, name):
    """An instance of ``kind`` whose every operand is the variable ``name``."""
    values = {}
    for spec in dataclasses.fields(kind):
        if "List[Operand]" in spec.type or "List[Var]" in spec.type:
            values[spec.name] = [ir.Var(name)]
        elif "Operand" in spec.type or "Var" in spec.type:
            values[spec.name] = ir.Var(name)
    return kind(**values)


# values an operand may hold that give some footprint a token of its own
_TOKEN_HOLDERS = [
    Channel(0),
    StructVal("T"),
    SliceVal([0]),
    CancelFunc(ContextVal(Channel(0))),
]


class TestTypeSets:
    def test_every_instruction_has_a_footprint_rule_and_a_handler(self):
        assert set(_FOOTPRINT_RULES) == _instruction_types()
        assert set(_HANDLERS) == _instruction_types()

    def test_always_visible_is_exactly_the_types_with_a_token_in_any_env(self):
        # blank operands resolve to nothing in an empty env: what is left is
        # the token the type always carries
        tokened = {kind for kind in _FOOTPRINT_RULES if _instr_footprint(kind(), Env())}
        assert tokened == _ALWAYS_VISIBLE
        for kind in _ALWAYS_VISIBLE:
            assert _instr_footprint(_with_operands(kind, "v"), Env()), kind.__name__

    def test_cells_only_types_touch_nothing_in_an_unshared_env(self):
        assert not _ALWAYS_VISIBLE & _CELLS_ONLY
        assert ir.Jump not in _ALWAYS_VISIBLE | _CELLS_ONLY
        for kind in _CELLS_ONLY:
            instr = _with_operands(kind, "v")
            for value in _TOKEN_HOLDERS:
                parent = Env()
                parent.vars["v"] = value
                env = Env(parent=parent)
                assert not _instr_footprint(instr, env), (kind.__name__, value)
                parent.mark_shared()  # a closure captured the frame holding v
                assert _instr_footprint(instr, env), (kind.__name__, value)

    def test_types_outside_both_sets_can_carry_a_token_in_an_unshared_env(self):
        # the shortcut must fall back for these: the footprint can be
        # non-empty although no frame is shared
        for kind in set(_FOOTPRINT_RULES) - _ALWAYS_VISIBLE - _CELLS_ONLY - {ir.Jump}:
            instr = _with_operands(kind, "v")
            if kind is ir.Select:
                instr.cases = [ir.SelectCase(chan=ir.Var("v"))]
            footprints = []
            for value in _TOKEN_HOLDERS:
                env = Env()
                env.vars["v"] = value
                footprints.append(_instr_footprint(instr, env))
            assert any(footprints), kind.__name__
