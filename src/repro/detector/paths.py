"""Per-goroutine execution-path enumeration (paper §3.3).

GCatch enumerates, for every goroutine in a channel's analysis scope, all
execution paths restricted to that scope:

* inter-procedural DFS, but a call is only followed when the callee can
  (transitively) touch a primitive in ``Pset`` — otherwise it is skipped;
* loops with statically unknown trip counts are unrolled at most twice;
* branch conditions over read-only variables and constants are recorded so
  that path combinations with contradictory conditions can be filtered.

A path is a sequence of events: synchronization operations on Pset
primitives, goroutine spawns, select choices, and branch decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.alias import AliasAnalysis
from repro.analysis.callgraph import CallGraph, transitive_touchers
from repro.analysis.primitives import Primitive, PrimitiveMap
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

MAX_PATHS_PER_GOROUTINE = 128
MAX_LOOP_UNROLL = 2
MAX_COMBINATIONS = 512


# ---------------------------------------------------------------------------
# path events


@dataclass(eq=False)
class OpEvent:
    """A synchronization operation on a Pset primitive."""

    kind: str  # 'send','recv','close','lock','rlock','unlock','runlock','add','done','wait'
    prim: Primitive
    line: int
    instr: ir.Instr
    from_select: bool = False

    @property
    def blocking(self) -> bool:
        return self.kind in ("send", "recv", "lock", "rlock", "wait", "condwait")

    def __repr__(self) -> str:
        return f"{self.kind}({self.prim.site.label})@{self.line}"


@dataclass(eq=False)
class SelectChoice:
    """A select occurrence; the enumerator fixed which branch the path takes.

    ``chosen`` is an OpEvent for a Pset case, the string ``"other"`` for a
    case whose channel is outside Pset, or ``"default"``.
    """

    instr: ir.Select
    line: int
    chosen: object  # OpEvent | 'other' | 'default'
    pset_cases: List[OpEvent] = field(default_factory=list)
    has_other_cases: bool = False

    @property
    def has_default(self) -> bool:
        return self.instr is not None and self.instr.default_target is not None

    def __repr__(self) -> str:
        return f"select@{self.line}->{self.chosen!r}"


@dataclass(eq=False)
class SpawnEvent:
    child_func: str
    line: int
    instr: ir.Go

    def __repr__(self) -> str:
        return f"go {self.child_func}@{self.line}"


@dataclass(eq=False)
class BranchEvent:
    var: str
    op: str
    const: object
    taken: bool
    read_only: bool
    line: int

    def __repr__(self) -> str:
        return f"[{self.var}{self.op}{self.const}={self.taken}]@{self.line}"


@dataclass(eq=False)
class LoopEvent:
    """Records that a loop body was entered ``iterations`` times on this path."""

    cond_key: str
    iterations: int
    line: int

    def __repr__(self) -> str:
        return f"loop({self.cond_key})x{self.iterations}"


PathEvent = object  # union of the event classes above


@dataclass(eq=False)
class Path:
    """One enumerated execution path of one goroutine.

    ``cut`` marks a path the enumerator truncated at the loop-unroll limit:
    the real execution keeps iterating past the recorded prefix. The
    encoder uses it to model *repeatable* operations inside the cut loop
    (a send that will be attempted again on every further iteration).
    """

    function: str
    events: List[PathEvent] = field(default_factory=list)
    cut: bool = False

    def op_events(self) -> List[OpEvent]:
        out: List[OpEvent] = []
        for event in self.events:
            if isinstance(event, OpEvent):
                out.append(event)
            elif isinstance(event, SelectChoice) and isinstance(event.chosen, OpEvent):
                out.append(event.chosen)
        return out

    def blocking_points(self) -> List[int]:
        """Indexes of events at which this path could block forever."""
        out: List[int] = []
        for i, event in enumerate(self.events):
            if isinstance(event, OpEvent) and event.blocking:
                out.append(i)
            elif isinstance(event, SelectChoice) and not event.has_default:
                # a select without default can block, but only when every
                # case is on a Pset primitive can blocking be proven
                if event.pset_cases and not event.has_other_cases:
                    out.append(i)
        return out

    def branch_events(self) -> List[BranchEvent]:
        return [e for e in self.events if isinstance(e, BranchEvent)]

    def loop_events(self) -> List[LoopEvent]:
        return [e for e in self.events if isinstance(e, LoopEvent)]

    def spawn_events(self) -> List[Tuple[int, SpawnEvent]]:
        return [(i, e) for i, e in enumerate(self.events) if isinstance(e, SpawnEvent)]

    def __repr__(self) -> str:
        return f"<Path {self.function}: {self.events!r}>"


# ---------------------------------------------------------------------------
# enumeration


class PathEnumerator:
    """Enumerates paths for one function given an analysis scope and Pset."""

    def __init__(
        self,
        program: ir.Program,
        call_graph: CallGraph,
        alias: AliasAnalysis,
        pmap: PrimitiveMap,
        pset: Sequence[Primitive],
        scope_functions: Set[str],
        max_loop_unroll: int = MAX_LOOP_UNROLL,
        prune_infeasible: bool = True,
        collector=None,
        def_counts: Optional[Dict[str, int]] = None,
    ):
        self.collector = collector
        self.program = program
        self.call_graph = call_graph
        self.alias = alias
        self.pmap = pmap
        self.pset = list(pset)
        self.pset_sites = {p.site for p in pset}
        self.scope_functions = scope_functions
        self.max_loop_unroll = max_loop_unroll
        self.prune_infeasible = prune_infeasible
        direct = {
            op.function for prim in pset for op in prim.operations if op.kind != "create"
        }
        self.relevant_functions = transitive_touchers(call_graph, direct)
        # program-wide, so the detector computes it once and shares it
        # across the per-root enumerators of every channel
        self._def_counts = (
            def_counts if def_counts is not None else _definition_counts(program)
        )
        self._prim_by_site = {p.site: p for p in pmap}

    # -- public ---------------------------------------------------------------

    def enumerate(self, function_name: str) -> List[Path]:
        func = self.program.functions.get(function_name)
        if func is None or func.entry is None:
            return [Path(function_name)]
        paths: List[Path] = []
        self._walk(func, func.entry, 0, [], [], {}, paths, call_stack=(function_name,), deferred=[])
        if not paths:
            paths.append(Path(function_name))
        enumerated = len(paths)
        if self.prune_infeasible:
            paths = [p for p in paths if conditions_satisfiable(p.branch_events())]
        if self.collector:
            self.collector.count("paths.enumerated", enumerated)
            self.collector.count("paths.infeasible-pruned", enumerated - len(paths))
        return paths[:MAX_PATHS_PER_GOROUTINE]

    # -- DFS ------------------------------------------------------------------

    def _walk(
        self,
        func: ir.Function,
        block: ir.Block,
        idx: int,
        events: List[PathEvent],
        loop_stack: List,
        visits: Dict[int, int],
        out: List[Path],
        call_stack: Tuple[str, ...],
        deferred: List[Tuple[str, List[ir.Operand], int]],
    ) -> None:
        if len(out) >= MAX_PATHS_PER_GOROUTINE:
            return
        instrs = block.instrs
        i = idx
        while i < len(instrs):
            instr = instrs[i]
            consumed = self._visit_instr(func, instr, events, out, call_stack, deferred)
            if consumed is False:
                return  # path terminated inside (e.g. inlined call diverged)
            i += 1
        terminator = block.terminator
        if terminator is None or isinstance(terminator, (ir.Return, ir.Panic)):
            self._finish_path(func, events, deferred, out, call_stack)
            return
        if isinstance(terminator, ir.Jump):
            self._enter_block(func, terminator.target, events, loop_stack, visits, out, call_stack, deferred)
            return
        if isinstance(terminator, ir.CondJump):
            info = terminator.branch_info
            # visits was pre-incremented on entry: >1 means a true revisit
            loop_count = visits.get(block.id, 0) - 1
            for taken, target in ((True, terminator.true_block), (False, terminator.false_block)):
                branch_events = list(events)
                if info is not None:
                    branch_events.append(
                        BranchEvent(
                            var=info.var or "?",
                            op=info.op,
                            const=info.const,
                            taken=taken,
                            read_only=self._is_read_only(info.var),
                            line=terminator.line,
                        )
                    )
                    if loop_count >= 1 and not taken:
                        # leaving a loop whose header we revisited: record the
                        # iteration count for the loop-mismatch filter
                        branch_events.append(
                            LoopEvent(
                                cond_key=f"{info.var}{info.op}{info.const}",
                                iterations=loop_count,
                                line=terminator.line,
                            )
                        )
                self._enter_block(
                    func, target, branch_events, loop_stack, dict(visits), out, call_stack, list(deferred)
                )
            return
        if isinstance(terminator, ir.Select):
            self._walk_select(func, terminator, events, loop_stack, visits, out, call_stack, deferred)
            return
        if isinstance(terminator, ir.RangeNext):
            op = self._op_for(terminator, "recv", terminator.chan, terminator.line)
            # body branch: the receive proceeds
            body_events = list(events)
            if op is not None:
                body_events.append(op)
            self._enter_block(func, terminator.body, body_events, loop_stack, dict(visits), out, call_stack, list(deferred))
            # done branch: channel closed & drained (receive still proceeds
            # in Go, yielding ok=false; modelled as a recv occurrence too)
            done_events = list(events)
            if op is not None:
                done_events.append(
                    OpEvent("recv", op.prim, terminator.line, terminator)
                )
            self._enter_block(func, terminator.done, done_events, loop_stack, dict(visits), out, call_stack, list(deferred))
            return
        raise AssertionError(f"unhandled terminator {type(terminator).__name__}")

    def _enter_block(
        self,
        func: ir.Function,
        block: ir.Block,
        events: List[PathEvent],
        loop_stack: List,
        visits: Dict[int, int],
        out: List[Path],
        call_stack: Tuple[str, ...],
        deferred: List[Tuple[str, List[ir.Operand], int]],
    ) -> None:
        count = visits.get(block.id, 0)
        if count >= self.max_loop_unroll:
            # unroll limit reached: emit the path as enumerated so far.
            # Deferred operations are NOT appended — the path never returns.
            if len(out) < MAX_PATHS_PER_GOROUTINE:
                out.append(Path(call_stack[0], list(events), cut=True))
            return
        new_visits = dict(visits)
        new_visits[block.id] = count + 1
        self._walk(func, block, 0, events, loop_stack, new_visits, out, call_stack, deferred)

    def _walk_select(
        self,
        func: ir.Function,
        select: ir.Select,
        events: List[PathEvent],
        loop_stack: List,
        visits: Dict[int, int],
        out: List[Path],
        call_stack: Tuple[str, ...],
        deferred: List[Tuple[str, List[ir.Operand], int]],
    ) -> None:
        pset_cases: List[OpEvent] = []
        case_ops: List[Optional[OpEvent]] = []
        has_other = False
        for case in select.cases:
            op = self._op_for(select, case.kind, case.chan, case.line, from_select=True)
            case_ops.append(op)
            if op is not None:
                pset_cases.append(op)
            else:
                has_other = True
        for case, op in zip(select.cases, case_ops):
            if op is None and self._select_arm_dead(case):
                continue
            choice = SelectChoice(
                instr=select,
                line=select.line,
                chosen=op if op is not None else "other",
                pset_cases=pset_cases,
                has_other_cases=has_other,
            )
            self._enter_block(
                func, case.target, events + [choice], loop_stack, dict(visits), out, call_stack, list(deferred)
            )
        if select.default_target is not None:
            choice = SelectChoice(
                instr=select,
                line=select.line,
                chosen="default",
                pset_cases=pset_cases,
                has_other_cases=has_other,
            )
            self._enter_block(
                func,
                select.default_target,
                events + [choice],
                loop_stack,
                dict(visits),
                out,
                call_stack,
                list(deferred),
            )

    def _visit_instr(
        self,
        func: ir.Function,
        instr: ir.Instr,
        events: List[PathEvent],
        out: List[Path],
        call_stack: Tuple[str, ...],
        deferred: List[Tuple[str, List[ir.Operand], int]],
    ) -> Optional[bool]:
        if isinstance(instr, ir.Send):
            self._append_op(events, instr, "send", instr.chan, instr.line)
        elif isinstance(instr, ir.Recv):
            self._append_op(events, instr, "recv", instr.chan, instr.line)
        elif isinstance(instr, ir.Close):
            self._append_op(events, instr, "close", instr.chan, instr.line)
        elif isinstance(instr, ir.Lock):
            self._append_op(events, instr, "rlock" if instr.read else "lock", instr.mutex, instr.line)
        elif isinstance(instr, ir.Unlock):
            self._append_op(events, instr, "runlock" if instr.read else "unlock", instr.mutex, instr.line)
        elif isinstance(instr, ir.WgAdd):
            self._append_op(events, instr, "add", instr.wg, instr.line)
        elif isinstance(instr, ir.WgDone):
            self._append_op(events, instr, "done", instr.wg, instr.line)
        elif isinstance(instr, ir.WgWait):
            self._append_op(events, instr, "wait", instr.wg, instr.line)
        elif isinstance(instr, ir.CondWait):
            self._append_op(events, instr, "condwait", instr.cond, instr.line)
        elif isinstance(instr, ir.CondSignal):
            # the paper's recipe: Signal is a send in a select with default
            # (never blocks); Broadcast is a loop of those, unrolled twice
            self._append_op(events, instr, "signal", instr.cond, instr.line)
            if instr.broadcast:
                self._append_op(events, instr, "signal", instr.cond, instr.line)
        elif isinstance(instr, ir.Go):
            target = instr.func_op
            if isinstance(target, ir.FuncRef) and target.name in self.program.functions:
                if target.name in self.relevant_functions:
                    events.append(SpawnEvent(child_func=target.name, line=instr.line, instr=instr))
        elif isinstance(instr, ir.Defer):
            self._register_defer(instr, deferred)
        elif isinstance(instr, ir.Call):
            callee = self._inlineable_callee(instr, call_stack)
            if callee is not None:
                # inline: continue enumeration inside the callee; the rest of
                # the caller path continues when the callee path returns
                return self._inline_call(func, instr, callee, events, out, call_stack, deferred)
        return None

    def _register_defer(
        self, instr: ir.Defer, deferred: List[Tuple[str, List[ir.Operand], int]]
    ) -> None:
        if isinstance(instr.func_op, ir.FuncRef):
            deferred.append((instr.func_op.name, list(instr.args), instr.line))

    def _inlineable_callee(self, instr: ir.Call, call_stack: Tuple[str, ...]) -> Optional[str]:
        if not isinstance(instr.func_op, ir.FuncRef):
            return None  # dynamic call: ignored when ambiguous (paper §5.1)
        name = instr.func_op.name
        if name.startswith("$") or name not in self.program.functions:
            return None
        if name not in self.relevant_functions:
            return None  # callee touches nothing in Pset: skipped (§3.3)
        if name in call_stack:
            return None  # bounded recursion: do not re-enter
        return name

    def _inline_call(
        self,
        caller: ir.Function,
        instr: ir.Call,
        callee_name: str,
        events: List[PathEvent],
        out: List[Path],
        call_stack: Tuple[str, ...],
        deferred: List[Tuple[str, List[ir.Operand], int]],
    ) -> bool:
        callee = self.program.functions[callee_name]
        callee_paths: List[Path] = []
        self._walk(
            callee,
            callee.entry,  # type: ignore[arg-type]
            0,
            [],
            [],
            {},
            callee_paths,
            call_stack + (callee_name,),
            deferred=[],
        )
        if not callee_paths:
            callee_paths = [Path(callee_name)]
        # resume the caller after the call for each callee path
        block, idx = _locate(caller, instr)
        for callee_path in callee_paths[: MAX_PATHS_PER_GOROUTINE // 4]:
            resumed = events + list(callee_path.events)
            self._walk(
                caller,
                block,
                idx + 1,
                resumed,
                [],
                {},
                out,
                call_stack,
                list(deferred),
            )
        return False  # the inline handled all continuations

    def _finish_path(
        self,
        func: ir.Function,
        events: List[PathEvent],
        deferred: List[Tuple[str, List[ir.Operand], int]],
        out: List[Path],
        call_stack: Tuple[str, ...],
    ) -> None:
        final = list(events)
        for name, args, line in reversed(deferred):
            self._append_deferred(final, name, args, line, call_stack)
        if len(out) < MAX_PATHS_PER_GOROUTINE:
            out.append(Path(call_stack[0], final))

    def _append_deferred(
        self,
        events: List[PathEvent],
        name: str,
        args: List[ir.Operand],
        line: int,
        call_stack: Tuple[str, ...],
    ) -> None:
        pseudo = {
            DEFER_CLOSE: "close",
            DEFER_UNLOCK: "unlock",
            DEFER_RUNLOCK: "runlock",
            DEFER_LOCK: "lock",
            DEFER_RLOCK: "rlock",
            DEFER_WG_DONE: "done",
            DEFER_SEND: "send",
        }
        if name in pseudo:
            if args:
                self._append_op_operand(events, pseudo[name], args[0], line)
            return
        if name in self.program.functions and name in self.relevant_functions:
            # deferred closure: splice in its (first) path's events
            callee = self.program.functions[name]
            callee_paths: List[Path] = []
            self._walk(
                callee,
                callee.entry,  # type: ignore[arg-type]
                0,
                [],
                [],
                {},
                callee_paths,
                call_stack + (name,),
                deferred=[],
            )
            if callee_paths:
                events.extend(callee_paths[0].events)

    def _select_arm_dead(self, case: ir.SelectCase) -> bool:
        """A receive arm that can provably never fire.

        A select case receiving on a channel with zero send and zero close
        operations anywhere in the program can never complete: even a
        buffered channel yields nothing without a sender, and only the
        runtime can close a context Done channel. Paths taking such an arm
        are infeasible, so enumerating them only manufactures false
        positives (the arm lets the path skip the Pset cases it would
        otherwise have to synchronize on). The check demands every aliased
        site resolve to a known non-ctxdone primitive — an unresolved
        operand means the operation index may be incomplete, and the arm
        is conservatively kept.
        """
        if case.kind != "recv":
            return False
        sites = self.alias.sites_of(case.chan)
        if not sites:
            return False
        for site in sites:
            prim = self._prim_by_site.get(site)
            if prim is None or prim.site.kind == "ctxdone":
                return False
            if any(op.kind in ("send", "close") for op in prim.operations):
                return False
        return True

    # -- op helpers -------------------------------------------------------------

    def _op_for(
        self,
        instr: ir.Instr,
        kind: str,
        chan_op: ir.Operand,
        line: int,
        from_select: bool = False,
    ) -> Optional[OpEvent]:
        for site in self.alias.sites_of(chan_op):
            if site in self.pset_sites:
                prim = self._prim_by_site[site]
                return OpEvent(kind=kind, prim=prim, line=line, instr=instr, from_select=from_select)
        return None

    def _append_op(
        self, events: List[PathEvent], instr: ir.Instr, kind: str, operand: ir.Operand, line: int
    ) -> None:
        op = self._op_for(instr, kind, operand, line)
        if op is not None:
            events.append(op)

    def _append_op_operand(
        self, events: List[PathEvent], kind: str, operand: ir.Operand, line: int
    ) -> None:
        for site in self.alias.sites_of(operand):
            if site in self.pset_sites:
                prim = self._prim_by_site[site]
                events.append(OpEvent(kind=kind, prim=prim, line=line, instr=None))
                return

    def _is_read_only(self, var: Optional[str]) -> bool:
        if var is None:
            return False
        return self._def_counts.get(var, 0) <= 1


def _locate(func: ir.Function, instr: ir.Instr) -> Tuple[ir.Block, int]:
    for block in func.reachable_blocks():
        for i, candidate in enumerate(block.instrs):
            if candidate is instr:
                return block, i
    raise ValueError("instruction not found in function")


def _definition_counts(program: ir.Program) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for func in program:
        for instr in func.instructions():
            for var in instr.defs():
                counts[var.name] = counts.get(var.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# feasibility of branch-condition sets


def conditions_satisfiable(conditions: Sequence[BranchEvent]) -> bool:
    """Check a conjunction of read-only branch conditions for consistency.

    Only conditions over read-only variables are inspected, mirroring
    GCatch's pruning rule; conditions over mutable variables are assumed
    satisfiable (one of the paper's false-positive sources).
    """
    by_var: Dict[str, List[BranchEvent]] = {}
    for cond in conditions:
        if cond.read_only:
            by_var.setdefault(cond.var, []).append(cond)
    for var, conds in by_var.items():
        if not _var_satisfiable(conds):
            return False
    return True


def _var_satisfiable(conds: List[BranchEvent]) -> bool:
    lo, hi = float("-inf"), float("inf")
    not_equal: Set[object] = set()
    must_equal: Optional[object] = None
    for cond in conds:
        op, const, taken = cond.op, cond.const, cond.taken
        effective = op if taken else _negate(op)
        if effective == "==":
            if must_equal is not None and must_equal != const:
                return False
            must_equal = const
        elif effective == "!=":
            not_equal.add(const)
        elif isinstance(const, bool) or const is None:
            continue  # comparisons other than ==/!= over bools/nil: ignore
        elif effective == "<":
            hi = min(hi, const - 1)
        elif effective == "<=":
            hi = min(hi, const)
        elif effective == ">":
            lo = max(lo, const + 1)
        elif effective == ">=":
            lo = max(lo, const)
    if must_equal is not None:
        if must_equal in not_equal:
            return False
        if isinstance(must_equal, bool) or must_equal is None:
            return True
        return lo <= must_equal <= hi
    if lo > hi:
        return False
    if lo == float("-inf") or hi == float("inf"):
        return True  # an unbounded interval always beats a finite exclusion set
    excluded = sum(1 for v in not_equal if isinstance(v, int) and lo <= v <= hi)
    return (hi - lo + 1) > excluded


def _negate(op: str) -> str:
    return {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}[op]


# ---------------------------------------------------------------------------
# goroutine sets and path combinations


@dataclass(eq=False)
class GoroutinePath:
    """A chosen path for one goroutine instance in a combination."""

    gid: int
    parent_gid: Optional[int]
    spawn_index: Optional[int]  # index of the SpawnEvent in the parent's path
    path: Path


@dataclass(eq=False)
class PathCombination:
    goroutines: List[GoroutinePath]

    def has_blocking_op(self) -> bool:
        return any(g.path.blocking_points() for g in self.goroutines)


def enumerate_combinations(
    enumerator: PathEnumerator, root_function: str, require_blocking: bool = True
) -> List[PathCombination]:
    """All path combinations for the goroutines executing in a scope.

    ``require_blocking=False`` keeps combinations without any blocking
    operation — needed by the non-blocking misuse detector (§6), whose
    goal states are panics rather than blocks.
    """
    root_paths = enumerator.enumerate(root_function)
    prune = enumerator.prune_infeasible
    combos: List[PathCombination] = []
    for root_path in root_paths:
        counter = itertools.count(1)
        for combo in _expand(
            enumerator, root_path, gid=0, parent=None, spawn_index=None, counter=counter, depth=0
        ):
            combos.append(combo)
            if len(combos) >= MAX_COMBINATIONS:
                return _filter_combinations(combos, require_blocking, prune)
    return _filter_combinations(combos, require_blocking, prune)


def _expand(
    enumerator: PathEnumerator,
    path: Path,
    gid: int,
    parent: Optional[int],
    spawn_index: Optional[int],
    counter,
    depth: int,
) -> List[PathCombination]:
    """Expand a chosen path into combinations covering its spawned children."""
    spawns = path.spawn_events()
    base = GoroutinePath(gid=gid, parent_gid=parent, spawn_index=spawn_index, path=path)
    if not spawns or depth > 4:
        return [PathCombination([base])]
    child_options: List[List[PathCombination]] = []
    for event_index, spawn in spawns:
        child_gid = next(counter)
        child_paths = enumerator.enumerate(spawn.child_func)
        options: List[PathCombination] = []
        for child_path in child_paths:
            options.extend(
                _expand(
                    enumerator,
                    child_path,
                    gid=child_gid,
                    parent=gid,
                    spawn_index=event_index,
                    counter=counter,
                    depth=depth + 1,
                )
            )
        child_options.append(options[: max(MAX_COMBINATIONS // 8, 1)])
    combos: List[PathCombination] = []
    for selection in itertools.product(*child_options):
        goroutines = [base]
        for sub in selection:
            goroutines.extend(sub.goroutines)
        combos.append(PathCombination(goroutines))
        if len(combos) >= MAX_COMBINATIONS:
            break
    return combos


def _filter_combinations(
    combos: List[PathCombination],
    require_blocking: bool = True,
    prune_infeasible: bool = True,
) -> List[PathCombination]:
    """Apply GCatch's combination filters (§3.3)."""
    out: List[PathCombination] = []
    for combo in combos:
        if require_blocking and not combo.has_blocking_op():
            continue
        all_branches = [e for g in combo.goroutines for e in g.path.branch_events()]
        if prune_infeasible and not conditions_satisfiable(all_branches):
            continue
        if _loop_iteration_conflict(combo):
            continue
        out.append(combo)
    return out


def _loop_iteration_conflict(combo: PathCombination) -> bool:
    """Two loops sharing a terminating condition but unrolled differently.

    A path that iterates a loop k times emits a LoopEvent per revisit, so
    within one path only the *final* (maximal) count per condition matters;
    the conflict the paper filters is between different goroutines' loops.
    """
    seen: Dict[str, int] = {}
    for g in combo.goroutines:
        per_path: Dict[str, int] = {}
        for loop in g.path.loop_events():
            per_path[loop.cond_key] = max(per_path.get(loop.cond_key, 0), loop.iterations)
        for cond_key, iterations in per_path.items():
            if cond_key in seen and seen[cond_key] != iterations:
                return True
            seen[cond_key] = iterations
    return False
