"""Systematic schedule exploration: the dynamic oracle as a *checker*.

``run_program`` samples interleavings from a seeded RNG — the paper's
random-sleep validation (§5.1). Sampling can miss rare interleavings, so a
"no schedule leaks" claim built on it is only probabilistic. This module
replaces sampling with bounded systematic search:

* every nondeterministic decision (which goroutine steps, which ``select``
  case commits) is a *choice point*; the explorer runs the program to
  completion, records the choice points it passed, and then backtracks
  depth-first over the untried alternatives — systematic search in the
  style of VeriSoft/GoAT;
* only the root run executes from ``main``. Where a run records a branch
  point it checkpoints the interpreter (goroutines, environments, sync
  objects, step counts, runtime id counters; IR shared) just before that
  sched choice — for a ``select`` branch, before the sched choice of the
  step that reaches it. Each sibling restores the checkpoint and re-decides
  only the choices from there through its prefix, with the same
  ``ReplayDivergence`` check a replay from ``main`` had. Every sibling but
  the last restores a copy; the last takes the checkpoint over. The search
  is the one a replay from ``main`` makes: the same runs, prunes, steps and
  traces;
* commuting steps are not explored in both orders. Each pending step has a
  *footprint* (the channels/mutexes/waitgroups/shared variables it touches);
  steps with disjoint footprints are independent, and a sleep-set discipline
  (Godefroid) prunes the redundant orderings. Steps with an *empty*
  footprint (pure goroutine-local work) never branch at all;
* a decision computes only what it reads. It first asks whether each
  option's step is visible, which the instruction's type mostly answers
  without building a set, and runs the first invisible one at once.
  Footprints are built only for the candidates of a branch point, whose
  siblings' sleep sets read them, and for the chosen step when the sleep
  set has something to wake;
* exploration is bounded by a run budget and a per-run branching (depth)
  cap, :data:`MAX_BRANCH`; :class:`Exploration.complete` reports honestly
  whether the whole space within the program's semantics was covered or a
  bound was hit;
* by default the search stops after its first leaking run: once one
  schedule leaks, the oracle's verdict is "leak" whatever the search does
  next (model checkers stop at the first counterexample the same way).
  The stopped search is a prefix of the full one. Callers that count or
  list outcomes pass ``every_outcome=True``; :attr:`Exploration.stopped`
  records why the search ended.

Every explored outcome carries its choice trace, and
:func:`~repro.runtime.scheduler.replay_trace` re-executes any trace
deterministically — a discovered leaking schedule is a reproducible
artifact, not a lucky seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence

from repro.runtime.checkpoint import Checkpoint
from repro.runtime.choices import Choice, ChoicePolicy, ReplayDivergence
from repro.runtime.interp import RUNNABLE, Goroutine, Interpreter
from repro.runtime.scheduler import ExecutionResult, run_program
from repro.runtime.values import (
    CancelFunc,
    Channel,
    CondVal,
    Env,
    MutexVal,
    SliceVal,
    StructVal,
    WaitGroupVal,
)
from repro.ssa import ir
from repro.ssa.builder import (
    DEFER_CLOSE,
    DEFER_LOCK,
    DEFER_RLOCK,
    DEFER_RUNLOCK,
    DEFER_SEND,
    DEFER_UNLOCK,
    DEFER_WG_DONE,
)

Footprint = FrozenSet[Hashable]

#: footprint token that conflicts with every other footprint
CONFLICT_ALL = "*"

#: branch points one run records at most; past the cap a run explores no
#: further alternatives and the search is marked incomplete
MAX_BRANCH = 96

_EMPTY: Footprint = frozenset()
_WILD: Footprint = frozenset({CONFLICT_ALL})


def independent(a: Footprint, b: Footprint) -> bool:
    """Two steps commute iff their footprints are disjoint and bounded."""
    if CONFLICT_ALL in a or CONFLICT_ALL in b:
        return False
    return not (a & b)


# ---------------------------------------------------------------------------
# footprints


def _operand_value(op: Optional[ir.Operand], env: Env) -> Any:
    """Resolve an operand *without* interpreter side effects (no closures)."""
    if isinstance(op, ir.Var):
        try:
            return env.lookup(op.name)
        except KeyError:
            return None
    if isinstance(op, ir.Const):
        return op.value
    return None


def _sync_token(value: Any) -> Hashable:
    if isinstance(value, (Channel, MutexVal, WaitGroupVal, CondVal)):
        return (type(value).__name__, value.id)
    # nil channels / unresolved primitives: one shared bucket is conservative
    return ("nil-primitive",)


def _cells(env: Env, *operands: Optional[ir.Operand]) -> set:
    """Shared-variable cells an instruction reads or writes.

    A cell only matters when its owning frame has been captured by a
    closure (``Env.shared``): variables in never-captured frames cannot be
    reached by any other goroutine, so touching them commutes with
    everything.
    """
    cells: set = set()
    for op in operands:
        if not isinstance(op, ir.Var):
            continue
        owner = env.owner_of(op.name)
        if owner is not None and owner.shared:
            cells.add(("var", owner.shared_serial, op.name))
    return cells


def step_footprint(interp: Interpreter, goroutine: Goroutine) -> Footprint:
    """Shared state the goroutine's *next* step may touch.

    Empty means the step is invisible to every other goroutine and need
    never be reordered against anything; ``{CONFLICT_ALL}`` means "assume it
    touches everything".
    """
    frame = goroutine.frame
    env = frame.env
    if frame.returning:
        if frame.deferred:
            target, dargs = frame.deferred[-1]
            if isinstance(target, ir.FuncRef) and target.name in _SYNC_DEFERS:
                return frozenset({_sync_token(dargs[0] if dargs else None)})
            return _EMPTY  # a deferred call just pushes a frame
        # frame pop: return values land in the caller's env
        if len(goroutine.frames) >= 2 and frame.dsts:
            caller_env = goroutine.frames[-2].env
            return frozenset(_cells(caller_env, *frame.dsts))
        return _EMPTY
    instr = frame.current_instr()
    if instr is None:
        return _EMPTY
    return _instr_footprint(instr, env)


def _instr_footprint(instr: ir.Instr, env: Env) -> Footprint:
    rule = _FOOTPRINT_RULES.get(type(instr))
    if rule is None:
        return _WILD  # unknown instruction: assume it touches everything
    return rule(instr, env)


_SYNC_DEFERS = frozenset(
    {
        DEFER_CLOSE,
        DEFER_SEND,
        DEFER_UNLOCK,
        DEFER_RUNLOCK,
        DEFER_LOCK,
        DEFER_RLOCK,
        DEFER_WG_DONE,
    }
)
_IO: Footprint = frozenset({("io",)})
_TEST: Footprint = frozenset({("test",)})
# sleeping interacts with the virtual clock every step advances; modelled
# conservatively (see also the sleeper check in the policy)
_CLOCK: Footprint = frozenset({("clock",)})


def _synced(
    primitive: Optional[ir.Operand], env: Env, *operands: Optional[ir.Operand]
) -> Footprint:
    """The sync object ``primitive`` names, plus the shared cells of ``operands``."""
    cells = _cells(env, *operands)
    cells.add(_sync_token(_operand_value(primitive, env)))
    return frozenset(cells)


def _select_footprint(instr: ir.Select, env: Env) -> Footprint:
    tokens: set = set()
    ops: List[Optional[ir.Operand]] = []
    for case in instr.cases:
        tokens.add(_sync_token(_operand_value(case.chan, env)))
        ops.extend([case.chan, case.value, case.dst, case.ok_dst])
    return frozenset(tokens | _cells(env, *ops))


def _call_footprint(instr: ir.Call, env: Env) -> Footprint:
    target = _operand_value(instr.func_op, env)
    cells = _cells(env, *instr.args, instr.func_op, *instr.dsts)
    if isinstance(target, CancelFunc):
        cells.add(_sync_token(target.ctx.done))
    return frozenset(cells)


def _field_footprint(instr: ir.Instr, env: Env, moved: Optional[ir.Operand]) -> Footprint:
    cells = _cells(env, instr.obj, moved)
    obj = _operand_value(instr.obj, env)
    if isinstance(obj, StructVal):
        cells.add(("field", obj.id, instr.field_name))
    return frozenset(cells)


def _index_footprint(instr: ir.Instr, env: Env, moved: Optional[ir.Operand]) -> Footprint:
    cells = _cells(env, instr.seq, instr.index, moved)
    seq = _operand_value(instr.seq, env)
    if isinstance(seq, SliceVal):
        cells.add(("slice", seq.id))
    return frozenset(cells)


def _dst_cells(instr: ir.Instr, env: Env) -> Footprint:
    return frozenset(_cells(env, instr.dst))


#: the footprint of each instruction type, looked up by exact type (no
#: concrete IR instruction class subclasses another)
_FOOTPRINT_RULES: Dict[type, Callable[[Any, Env], Footprint]] = {
    ir.Send: lambda i, env: _synced(i.chan, env, i.chan, i.value),
    ir.Recv: lambda i, env: _synced(i.chan, env, i.chan, i.dst, i.ok_dst),
    ir.Close: lambda i, env: _synced(i.chan, env, i.chan),
    ir.RangeNext: lambda i, env: _synced(i.chan, env, i.chan, i.dst),
    ir.Select: _select_footprint,
    ir.Lock: lambda i, env: _synced(i.mutex, env, i.mutex),
    ir.Unlock: lambda i, env: _synced(i.mutex, env, i.mutex),
    ir.WgAdd: lambda i, env: _synced(i.wg, env, i.wg),
    ir.WgDone: lambda i, env: _synced(i.wg, env, i.wg),
    ir.WgWait: lambda i, env: _synced(i.wg, env, i.wg),
    ir.CondWait: lambda i, env: _synced(i.cond, env, i.cond),
    ir.CondSignal: lambda i, env: _synced(i.cond, env, i.cond),
    ir.Println: lambda i, env: _IO | _cells(env, *i.args),
    ir.Fatal: lambda i, env: _TEST,
    ir.Sleep: lambda i, env: _CLOCK,
    ir.Panic: lambda i, env: _WILD,  # a panic kills the whole program
    ir.Go: lambda i, env: frozenset(_cells(env, *i.args)),
    ir.Call: _call_footprint,
    ir.Defer: lambda i, env: frozenset(_cells(env, i.func_op, *i.args)),
    ir.Assign: lambda i, env: frozenset(_cells(env, i.dst, i.src)),
    ir.BinOp: lambda i, env: frozenset(_cells(env, i.dst, i.left, i.right)),
    ir.UnOp: lambda i, env: frozenset(_cells(env, i.dst, i.operand)),
    ir.FieldGet: lambda i, env: _field_footprint(i, env, i.dst),
    ir.FieldSet: lambda i, env: _field_footprint(i, env, i.value),
    ir.IndexGet: lambda i, env: _index_footprint(i, env, i.dst),
    ir.IndexSet: lambda i, env: _index_footprint(i, env, i.value),
    ir.CtxDone: lambda i, env: frozenset(_cells(env, i.ctx, i.dst)),
    ir.MakeChan: _dst_cells,
    ir.MakeMutex: _dst_cells,
    ir.MakeWaitGroup: _dst_cells,
    ir.MakeCond: _dst_cells,
    ir.MakeSlice: _dst_cells,
    ir.MakeStruct: _dst_cells,
    ir.MakeContext: lambda i, env: frozenset(_cells(env, i.dst, i.cancel_dst)),
    ir.CondJump: lambda i, env: frozenset(_cells(env, i.cond)),
    ir.Jump: lambda i, env: _EMPTY,
    ir.Return: lambda i, env: frozenset(_cells(env, *i.values)),
}

#: types whose footprint holds a token in every env: their steps are visible
_ALWAYS_VISIBLE = frozenset(
    {
        ir.Send,
        ir.Recv,
        ir.Close,
        ir.RangeNext,
        ir.Lock,
        ir.Unlock,
        ir.WgAdd,
        ir.WgDone,
        ir.WgWait,
        ir.CondWait,
        ir.CondSignal,
        ir.Println,
        ir.Fatal,
        ir.Sleep,
        ir.Panic,
    }
)

#: types whose footprint is only the shared cells of their operands: their
#: steps are invisible when no frame of the env chain is shared
_CELLS_ONLY = frozenset(
    {
        ir.Go,
        ir.Defer,
        ir.Assign,
        ir.BinOp,
        ir.UnOp,
        ir.CtxDone,
        ir.MakeChan,
        ir.MakeMutex,
        ir.MakeWaitGroup,
        ir.MakeCond,
        ir.MakeSlice,
        ir.MakeStruct,
        ir.MakeContext,
        ir.CondJump,
        ir.Return,
    }
)


def _chain_shared(env: Optional[Env]) -> bool:
    while env is not None:
        if env.shared:
            return True
        env = env.parent
    return False


def _visible_by_type(goroutine: Goroutine) -> Optional[bool]:
    """Whether the goroutine's next step is visible, told from its
    instruction's type and env chain alone; None when only the footprint
    can tell."""
    frame = goroutine.frame
    if frame.returning:
        if frame.deferred:
            target = frame.deferred[-1][0]
            return isinstance(target, ir.FuncRef) and target.name in _SYNC_DEFERS
        # a frame pop is cells-only: its results land in the caller's env
        if len(goroutine.frames) < 2 or not frame.dsts:
            return False
        return None if _chain_shared(goroutine.frames[-2].env) else False
    kind = type(frame.current_instr())
    if kind in _ALWAYS_VISIBLE:
        return True
    if kind is ir.Jump:
        return False
    if kind in _CELLS_ONLY and not _chain_shared(frame.env):
        return False
    return None


# ---------------------------------------------------------------------------
# outcome signatures


def outcome_signature(result: ExecutionResult) -> tuple:
    """What makes two executions "the same outcome".

    Deliberately goroutine-id-free: commuting independent steps (e.g. two
    unrelated ``go`` statements) permutes gid assignment without changing
    any observable behaviour.
    """
    leaks = tuple(
        sorted((leak.function, leak.blocked_line, leak.blocked_kind) for leak in result.leaked)
    )
    return (
        tuple(result.output),
        result.panicked,
        result.panic_message,
        result.test_failed,
        result.global_deadlock,
        tuple(sorted(set(result.deadlock_lines))),
        leaks,
        result.hit_step_limit,
    )


# ---------------------------------------------------------------------------
# the directed policy


class _PrunedRun(Exception):
    """Every enabled step is asleep: this continuation is covered elsewhere."""


@dataclass
class _ResumePoint:
    """Where sibling runs start: the run's state just before choice ``pos``.

    ``pos`` is a sched choice. A sched branch point resumes right at it; a
    select branch point resumes at the sched choice of the step that
    reaches the ``select``, and re-decides that choice through the prefix.
    The choices before ``pos`` live in each work item's prefix, not here.
    """

    pos: int
    state: Optional[Checkpoint]  # None once the last resuming run took it
    waiting: int = 0  # work items that will resume from here

    def claim(self) -> Checkpoint:
        """The state one resuming run consumes; the last one takes it over."""
        self.waiting -= 1
        if self.waiting:
            return self.state.copy()
        state, self.state = self.state, None
        return state


@dataclass
class _BranchPoint:
    pos: int  # index of this choice in the run's trace
    kind: str  # 'sched' | 'select'
    options: int
    candidates: List[int]  # option indices, exploration order; [0] was taken
    gids: List[int]  # goroutine ids per candidate (sched only)
    fps: List[Footprint]  # footprint per candidate (sched only)
    sleep: Dict[int, Footprint]  # sleep set snapshot before this choice
    resume: _ResumePoint


class _DirectedPolicy(ChoicePolicy):
    """Replay a forced prefix, then extend depth-first, recording branches.

    A policy built with a ``resume`` point continues a run restored from its
    checkpoint: its trace already holds the prefix up to ``resume.pos`` and
    only the choices from there on are re-decided through the prefix.
    """

    def __init__(
        self,
        prefix: Sequence[Choice],
        branch_sleep: Dict[int, Footprint],
        prune: bool,
        resume: Optional[_ResumePoint] = None,
    ):
        super().__init__()
        self._prefix = list(prefix)
        self._branch_sleep = dict(branch_sleep)
        self._prune = prune
        self.sleep: Dict[int, Footprint] = {}
        self.branch_points: List[_BranchPoint] = []
        self.truncated = False
        self.checkpoints = 0  # interpreter checkpoints this run took
        self.footprints = 0  # step footprints this run built
        # the resume point taken before the current step, for a select
        # branch point that step records
        self._step_resume: Optional[_ResumePoint] = None
        if resume is not None:
            self.trace = self._prefix[: resume.pos]

    # -- bookkeeping ------------------------------------------------------

    def _footprint(self, interp: Interpreter, goroutine: Goroutine) -> Footprint:
        self.footprints += 1
        return step_footprint(interp, goroutine)

    def _visible(self, interp: Interpreter, goroutine: Goroutine) -> bool:
        """``bool(step_footprint(interp, goroutine))``, building the footprint
        only where the instruction's type cannot tell."""
        seen = _visible_by_type(goroutine)
        if seen is None:
            return bool(self._footprint(interp, goroutine))
        return seen

    def _wake_dependents(self, fp: Footprint) -> None:
        self.sleep = {gid: slept for gid, slept in self.sleep.items() if independent(slept, fp)}

    def _resume_point(self, pos: int, interp: Interpreter) -> _ResumePoint:
        """Checkpoint the run before sched choice ``pos``."""
        self.checkpoints += 1
        return _ResumePoint(pos=pos, state=Checkpoint.take(interp))

    def _prepare_step(
        self,
        pos: int,
        goroutine: Goroutine,
        interp: Interpreter,
        resume: Optional[_ResumePoint] = None,
    ) -> None:
        """Before sched choice ``pos`` runs ``goroutine``: if its step will
        record a select branch point, that branch point resumes here."""
        self._step_resume = None
        if len(self.branch_points) < MAX_BRANCH and interp.select_options(goroutine) > 1:
            self._step_resume = resume or self._resume_point(pos, interp)

    # -- decisions --------------------------------------------------------

    def _decide(self, kind: str, options: Sequence[Any], interp: Any) -> int:
        pos = len(self.trace)
        if pos < len(self._prefix):
            return self._replay_prefix(pos, kind, options, interp)
        if kind == "sched":
            return self._decide_sched(pos, options, interp)
        return self._decide_select(pos, options)

    def _replay_prefix(self, pos: int, kind: str, options: Sequence[Any], interp: Any) -> int:
        recorded = self._prefix[pos]
        if recorded.kind != kind or recorded.options != len(options):
            raise ReplayDivergence(
                f"prefix choice {pos}: recorded {recorded.kind}/{recorded.options}, "
                f"program offers {kind}/{len(options)}"
            )
        if pos == len(self._prefix) - 1:
            if kind == "sched":  # the next choice, if a select, is a fresh one
                self._prepare_step(pos, options[recorded.index], interp)
            # the branch point itself: the parent already filtered this
            # sleep set against the substituted choice's footprint
            self.sleep = dict(self._branch_sleep)
        return recorded.index

    def _decide_sched(self, pos: int, options: Sequence[Goroutine], interp: Any) -> int:
        """Run the first invisible option, else the first awake candidate,
        recording a branch point when other candidates are awake."""
        if len(options) == 1 and not self.sleep:
            # a lone goroutine with nothing asleep runs whatever its footprint
            self._prepare_step(pos, options[0], interp)
            return 0
        # timers in play (or pruning off): assume every step conflicts
        wild = not self._prune or any(
            g.status == RUNNABLE and g.sleep_until > interp.clock
            for g in interp.goroutines.values()
        )
        if not wild:
            for i, goroutine in enumerate(options):
                if not self._visible(interp, goroutine):
                    return i  # invisible: run it now, nothing to reorder

        candidates = [i for i, g in enumerate(options) if g.gid not in self.sleep]
        if not candidates:
            raise _PrunedRun()

        resume = None
        fp: Optional[Footprint] = None  # the chosen step's, once built
        if len(candidates) > 1:
            if len(self.branch_points) < MAX_BRANCH:
                # the siblings' sleep sets read every candidate's footprint
                fps = [_WILD if wild else self._footprint(interp, options[i]) for i in candidates]
                fp = fps[0]
                resume = self._resume_point(pos, interp)
                self.branch_points.append(
                    _BranchPoint(
                        pos=pos,
                        kind="sched",
                        options=len(options),
                        candidates=list(candidates),
                        gids=[options[i].gid for i in candidates],
                        fps=fps,
                        sleep=dict(self.sleep),
                        resume=resume,
                    )
                )
            else:
                self.truncated = True
        chosen = candidates[0]
        goroutine = options[chosen]
        self._prepare_step(pos, goroutine, interp, resume)
        if self.sleep:
            if fp is None:
                fp = _WILD if wild else self._footprint(interp, goroutine)
            self._wake_dependents(fp)
        return chosen

    def _decide_select(self, pos: int, options: Sequence[Any]) -> int:
        if len(options) > 1:
            if len(self.branch_points) < MAX_BRANCH:
                resume = self._step_resume
                assert resume is not None and resume.pos == pos - 1
                self.branch_points.append(
                    _BranchPoint(
                        pos=pos,
                        kind="select",
                        options=len(options),
                        candidates=list(range(len(options))),
                        gids=[],
                        fps=[],
                        sleep=dict(self.sleep),
                        resume=resume,
                    )
                )
            else:
                self.truncated = True
        return 0


# ---------------------------------------------------------------------------
# exploration driver


@dataclass
class _WorkItem:
    prefix: List[Choice]
    sleep: Dict[int, Footprint]
    resume: Optional[_ResumePoint]  # None only for the root run, which starts at ``entry``


#: why a search ended: its work ran out, a leak decided the verdict, or a
#: bound cut it
STOP_EXHAUSTED = "exhausted"
STOP_FIRST_LEAK = "first-leak"
STOP_MAX_RUNS = "max-runs"
STOP_STEP_BUDGET = "step-budget"


@dataclass
class Exploration:
    """Everything a bounded systematic search established."""

    entry: str
    runs: int = 0
    pruned_runs: int = 0
    step_limited_runs: int = 0
    backtracks: int = 0  # alternative prefixes scheduled for exploration
    total_steps: int = 0  # interpreter steps summed across every run
    complete: bool = True  # False whenever any bound or stop left work undone
    stopped: str = STOP_EXHAUSTED
    outcomes: List[ExecutionResult] = field(default_factory=list)
    _signatures: Dict[tuple, ExecutionResult] = field(default_factory=dict)
    trace: Optional[Any] = None  # the run's repro.obs.Collector, if any

    def record(self, result: ExecutionResult) -> bool:
        signature = outcome_signature(result)
        if signature in self._signatures:
            return False
        self._signatures[signature] = result
        self.outcomes.append(result)
        return True

    def signatures(self) -> List[tuple]:
        return list(self._signatures)

    def leaking(self) -> List[ExecutionResult]:
        return [r for r in self.outcomes if r.blocked_forever]

    @property
    def any_leak(self) -> bool:
        return bool(self.leaking())

    @property
    def leak_free(self) -> bool:
        """Proven leak-freedom: no leak found AND the search was complete."""
        return self.complete and not self.any_leak

    def render(self) -> str:
        if self.complete:
            status = "complete"
        elif self.stopped == STOP_FIRST_LEAK:
            status = "stopped at first leak"
        else:
            status = "bounded"
        lines = [
            f"explored {self.runs} schedule(s) ({status}; {self.pruned_runs} pruned), "
            f"{len(self.outcomes)} distinct outcome(s), {len(self.leaking())} leaking"
        ]
        for result in self.outcomes:
            if result.blocked_forever:
                where = ", ".join(
                    f"{l.function}:{l.blocked_line} ({l.blocked_kind})" for l in result.leaked
                )
                kind = "DEADLOCK" if result.global_deadlock else "LEAK"
                lines.append(f"  {kind}: {where or sorted(set(result.deadlock_lines))}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable summary (schema shared with ``repro.obs.stats``)."""
        from repro.obs import SCHEMA, snapshot

        payload: dict = {
            "schema": SCHEMA,
            "kind": "exploration",
            "entry": self.entry,
            "runs": self.runs,
            "pruned_runs": self.pruned_runs,
            "step_limited_runs": self.step_limited_runs,
            "backtracks": self.backtracks,
            "total_steps": self.total_steps,
            "complete": self.complete,
            "stopped": self.stopped,
            "any_leak": self.any_leak,
            "outcomes": [
                {
                    "blocked_forever": o.blocked_forever,
                    "global_deadlock": o.global_deadlock,
                    "panicked": o.panicked,
                    "test_failed": o.test_failed,
                    "output": list(o.output),
                    "leaked": [
                        {
                            "function": l.function,
                            "line": l.blocked_line,
                            "kind": l.blocked_kind,
                        }
                        for l in o.leaked
                    ],
                    "choices": len(o.choice_trace),
                }
                for o in self.outcomes
            ],
        }
        if self.trace:
            payload["stats"] = snapshot(self.trace)
        return payload


def explore(
    program: ir.Program,
    entry: str = "main",
    max_runs: int = 512,
    max_steps: int = 20_000,
    max_total_steps: Optional[int] = None,
    prune: bool = True,
    collector=None,
    every_outcome: bool = False,
) -> Exploration:
    """Depth-first enumerate schedules of ``entry`` up to the given bounds.

    Returns an :class:`Exploration`; ``complete`` is True only when every
    interleaving (modulo commutation of independent steps) was covered.
    ``collector`` (a :class:`repro.obs.Collector`) receives an ``explore``
    span plus run/backtrack/prune counters, aggregated across every
    program execution the search performs, and each finished run's step
    count in the ``explore.run.steps`` distribution.

    The search stops after the first run whose result is
    ``blocked_forever``: if that run's ``seed`` is k, it made k+1 runs and
    kept the outcomes the full search has up to and including that leak.
    ``every_outcome=True`` searches on, for callers that count or list
    outcomes (``repro explore``, diffcheck, patch validation).

    ``max_total_steps`` bounds the *cumulative* interpreter steps across
    all runs — a deterministic analogue of a wall-clock budget, used by
    fuzz campaigns where one pathological generated program must not eat
    the whole campaign. Unlike a wall-clock cut-off it truncates at the
    same run on every re-execution, so triage stays replayable.
    """
    from repro.obs import NULL

    obs = collector or NULL
    exploration = Exploration(entry=entry)
    stack: List[_WorkItem] = [_WorkItem(prefix=[], sleep={}, resume=None)]
    checkpoints = restored_steps = footprints = 0
    with obs.span("explore"):
        while stack:
            if exploration.runs >= max_runs:
                exploration.complete = False
                exploration.stopped = STOP_MAX_RUNS
                break
            if max_total_steps is not None and exploration.total_steps >= max_total_steps:
                exploration.complete = False
                exploration.stopped = STOP_STEP_BUDGET
                if obs:
                    obs.count("explore.step-budget-exhausted")
                break
            item = stack.pop()
            policy = _DirectedPolicy(item.prefix, item.sleep, prune, item.resume)
            checkpoint = None
            if item.resume is not None:
                checkpoint = item.resume.claim()
                restored_steps += checkpoint.steps + checkpoint.drain_steps
            try:
                result: Optional[ExecutionResult] = run_program(
                    program,
                    entry=entry,
                    seed=exploration.runs,
                    max_steps=max_steps,
                    policy=policy,
                    collector=collector,
                    checkpoint=checkpoint,
                )
            except _PrunedRun:
                result = None
                exploration.pruned_runs += 1
                if obs:
                    obs.count("explore.sleep-prunes")
            exploration.runs += 1
            if obs:
                obs.count("explore.runs")
            if result is not None:
                exploration.total_steps += result.steps
                exploration.record(result)
                if obs:
                    obs.observe("explore.run.steps", result.steps)
                if result.hit_step_limit:
                    exploration.step_limited_runs += 1
                    exploration.complete = False
                    if obs:
                        obs.count("explore.step-limited")
            if policy.truncated:
                exploration.complete = False
            checkpoints += policy.checkpoints
            footprints += policy.footprints
            for bp in policy.branch_points:
                base = policy.trace[: bp.pos]
                bp.resume.waiting += len(bp.candidates) - 1
                for j in range(1, len(bp.candidates)):
                    exploration.backtracks += 1
                    stack.append(
                        _WorkItem(
                            prefix=base + [Choice(bp.kind, bp.options, bp.candidates[j])],
                            sleep=_sibling_sleep(bp, j),
                            resume=bp.resume,
                        )
                    )
            if result is not None and result.blocked_forever and not every_outcome and stack:
                exploration.complete = False
                exploration.stopped = STOP_FIRST_LEAK
                if obs:
                    obs.count("explore.first-leak-stops")
                break
    if obs:
        obs.count("explore.checkpoints", checkpoints)
        obs.count("explore.restored-steps", restored_steps)
        obs.count("explore.footprints", footprints)
        obs.count("explore.backtracks", exploration.backtracks)
        obs.count("explore.outcomes", len(exploration.outcomes))
        obs.count("explore.leaking", len(exploration.leaking()))
        exploration.trace = obs
    return exploration


def _sibling_sleep(bp: _BranchPoint, j: int) -> Dict[int, Footprint]:
    """Sleep set for the j-th candidate: earlier siblings go to sleep."""
    if bp.kind != "sched":
        return dict(bp.sleep)
    merged = dict(bp.sleep)
    for k in range(j):
        merged[bp.gids[k]] = bp.fps[k]
    own = bp.fps[j]
    return {gid: fp for gid, fp in merged.items() if independent(fp, own)}
