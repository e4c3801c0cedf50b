"""Shared intra-procedural, path-sensitive lockset machinery (§3.5).

Walks every bounded path of a function tracking which mutex creation sites
are held, emitting the events the traditional checkers consume: lock/unlock
transitions, field accesses with their lockset snapshot, and the set of
locks still held at each return.

:class:`LockFacts` is what the four lock checkers read: the facts of every
function's paths plus the callee lock summary. A detect builds it once and
shares it across their shards (``BMOCDetector.lock_facts``); each public
``check_*`` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.alias import AliasAnalysis, Site
from repro.ssa import ir
from repro.ssa.builder import DEFER_RUNLOCK, DEFER_UNLOCK

MAX_LOCK_PATHS = 64
MAX_BLOCK_VISITS = 2


@dataclass
class LockAcquire:
    site: Site
    line: int
    held_before: FrozenSet[Site]


@dataclass
class FieldAccess:
    struct_hint: str
    field_name: str
    line: int
    is_write: bool
    lockset: FrozenSet[Site]


@dataclass
class ReturnPoint:
    line: int
    held: FrozenSet[Site]


@dataclass
class CallWhileHolding:
    callee: str
    line: int
    held: FrozenSet[Site]


@dataclass
class LockPath:
    """Everything a traditional checker needs from one execution path."""

    acquires: List[LockAcquire] = field(default_factory=list)
    accesses: List[FieldAccess] = field(default_factory=list)
    returns: List[ReturnPoint] = field(default_factory=list)
    calls: List[CallWhileHolding] = field(default_factory=list)
    double_locks: List[Tuple[Site, int]] = field(default_factory=list)


class LockFacts:
    """What the four lock checkers read from one walk of every function.

    Each list holds ``(function name, fact)`` pairs, in program order and,
    within a function, in path order. A fact equal to an earlier one of
    the same function is left out, because no checker learns anything
    from it, so the paths themselves need not be kept:

    - ``events``: each path's acquires (:class:`LockAcquire`), then its
      re-locks (``(site, line)``), then its calls made while holding a
      lock (:class:`CallWhileHolding`);
    - ``unreleased``: ``(site, acquire line, return line)`` for a site
      still held at a return, once per site name and acquire line;
    - ``accesses``: each :class:`FieldAccess`, once per line, kind and
      lockset.

    ``summary`` is :func:`lock_summary`, computed on first read. Readers
    never mutate any of these, so one instance can serve every checker.
    """

    def __init__(self, program: ir.Program, alias: AliasAnalysis):
        self.program = program
        self.alias = alias
        self.events: List[Tuple[str, object]] = []
        self.unreleased: List[Tuple[str, Tuple[Site, int, int]]] = []
        self.accesses: List[Tuple[str, FieldAccess]] = []
        for func in program:
            self._add(func.name, walk_function(func, alias))

    def _add(self, name: str, paths: List[LockPath]) -> None:
        seen: Set[Tuple] = set()

        def keep(facts: List, key: Tuple, fact) -> None:
            if key not in seen:
                seen.add(key)
                facts.append((name, fact))

        for path in paths:
            for acquire in path.acquires:
                key = ("acquire", acquire.site, acquire.line, acquire.held_before)
                keep(self.events, key, acquire)
            for site, line in path.double_locks:
                keep(self.events, ("relock", site, line), (site, line))
            for call in path.calls:
                keep(self.events, ("call", call.callee, call.line, call.held), call)
            for ret in path.returns:
                for site in ret.held:
                    line = _acquire_line(path, site)
                    keep(self.unreleased, ("unreleased", str(site), line), (site, line, ret.line))
            for access in path.accesses:
                key = ("access", access.line, access.is_write, access.lockset)
                keep(self.accesses, key, access)

    @cached_property
    def summary(self) -> Dict[str, Set[Site]]:
        return lock_summary(self.program, self.alias)


def _acquire_line(path: LockPath, site: Site) -> int:
    """The line of the path's last acquire of ``site`` (0 if none)."""
    for acquire in reversed(path.acquires):
        if acquire.site == site:
            return acquire.line
    return 0


def walk_function(func: ir.Function, alias: AliasAnalysis) -> List[LockPath]:
    """Enumerate bounded paths through ``func`` with lockset tracking."""
    if func.entry is None:
        return []
    paths: List[LockPath] = []
    _walk(func.entry, LockPath(), set(), [], {}, alias, paths)
    return paths


def _mutex_sites(alias: AliasAnalysis, op: ir.Operand) -> List[Site]:
    return [s for s in alias.sites_of(op) if s.kind in ("mutex", "rwmutex")]


def _walk(
    block: ir.Block,
    path: LockPath,
    held: Set[Site],
    deferred_unlocks: List[Site],
    visits: Dict[int, int],
    alias: AliasAnalysis,
    out: List[LockPath],
) -> None:
    """Extend ``path`` through ``block`` to every bounded path end.

    The call owns ``path``, ``held``, ``deferred_unlocks`` and ``visits``
    and changes them in place. A branch hands copies to every successor
    but the last, whose walk continues in this loop with the originals; a
    path already in ``out`` is copied first, since ``out`` keeps it as it
    is."""
    while len(out) < MAX_LOCK_PATHS:
        for instr in block.instrs:
            _visit(instr, path, held, deferred_unlocks, alias)
        terminator = block.terminator
        if terminator is None or isinstance(terminator, (ir.Return, ir.Panic)):
            final_held = held - set(deferred_unlocks)
            path.returns.append(ReturnPoint(line=getattr(terminator, "line", 0), held=frozenset(final_held)))
            out.append(path)
            return
        successors = terminator.successors()
        if not successors:
            out.append(path)
            return
        *branches, block = successors
        path_in_out = False
        for succ in branches:
            count = visits.get(succ.id, 0)
            if count >= MAX_BLOCK_VISITS:
                out.append(path)
                path_in_out = True
                continue
            new_visits = dict(visits)
            new_visits[succ.id] = count + 1
            _walk(
                succ, _copy_path(path), set(held), list(deferred_unlocks),
                new_visits, alias, out,
            )
        count = visits.get(block.id, 0)
        if count >= MAX_BLOCK_VISITS:
            out.append(path)
            return
        if path_in_out:
            path = _copy_path(path)
        visits[block.id] = count + 1


def _copy_path(path: LockPath) -> LockPath:
    return LockPath(
        acquires=list(path.acquires),
        accesses=list(path.accesses),
        returns=list(path.returns),
        calls=list(path.calls),
        double_locks=list(path.double_locks),
    )


def _visit(
    instr: ir.Instr,
    path: LockPath,
    held: Set[Site],
    deferred_unlocks: List[Site],
    alias: AliasAnalysis,
) -> None:
    if isinstance(instr, ir.Lock) and not instr.read:
        for site in _mutex_sites(alias, instr.mutex):
            if site in held:
                path.double_locks.append((site, instr.line))
            path.acquires.append(
                LockAcquire(site=site, line=instr.line, held_before=frozenset(held))
            )
            held.add(site)
    elif isinstance(instr, ir.Unlock) and not instr.read:
        for site in _mutex_sites(alias, instr.mutex):
            held.discard(site)
    elif isinstance(instr, ir.Defer):
        if isinstance(instr.func_op, ir.FuncRef) and instr.func_op.name in (
            DEFER_UNLOCK,
            DEFER_RUNLOCK,
        ):
            for site in _mutex_sites(alias, instr.args[0]):
                deferred_unlocks.append(site)
    elif isinstance(instr, ir.FieldGet):
        if _sync_kind(alias, instr.dst.name):
            return  # reading a sync-typed field is not a data access
        hint = _obj_hint(instr.obj, alias)
        path.accesses.append(
            FieldAccess(
                struct_hint=hint,
                field_name=instr.field_name,
                line=instr.line,
                is_write=False,
                lockset=frozenset(held),
            )
        )
    elif isinstance(instr, ir.FieldSet):
        hint = _obj_hint(instr.obj, alias)
        path.accesses.append(
            FieldAccess(
                struct_hint=hint,
                field_name=instr.field_name,
                line=instr.line,
                is_write=True,
                lockset=frozenset(held),
            )
        )
    elif isinstance(instr, ir.Call):
        if held and isinstance(instr.func_op, ir.FuncRef):
            path.calls.append(
                CallWhileHolding(callee=instr.func_op.name, line=instr.line, held=frozenset(held))
            )


def _sync_kind(alias: AliasAnalysis, name: str) -> bool:
    kind = getattr(alias.program, "kinds", {}).get(name, "any")
    return kind in ("mutex", "rwmutex", "waitgroup", "cond", "testing", "context", "chan")


def _obj_hint(op: ir.Operand, alias: AliasAnalysis) -> str:
    if isinstance(op, ir.Var):
        kind = getattr(alias.program, "kinds", {}).get(op.name, "any")
        if kind.startswith("struct:"):
            return kind.split(":", 1)[1]
        return op.name.split("$")[0]
    return "?"


def lock_summary(program: ir.Program, alias: AliasAnalysis) -> Dict[str, Set[Site]]:
    """Which mutex sites each function may acquire, transitively."""
    direct: Dict[str, Set[Site]] = {}
    callees: Dict[str, Set[str]] = {}
    for func in program:
        acquired: Set[Site] = set()
        called: Set[str] = set()
        for instr in func.instructions():
            if isinstance(instr, ir.Lock) and not instr.read:
                acquired.update(_mutex_sites(alias, instr.mutex))
            elif isinstance(instr, (ir.Call, ir.Go)) and isinstance(instr.func_op, ir.FuncRef):
                called.add(instr.func_op.name)
        direct[func.name] = acquired
        callees[func.name] = called
    # propagate to a fixpoint
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            for callee in called:
                extra = direct.get(callee, set()) - direct[name]
                if extra:
                    direct[name] |= extra
                    changed = True
    return direct
