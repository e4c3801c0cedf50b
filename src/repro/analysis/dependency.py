"""Primitive dependency graph and the disentangling policy (§3.2).

Primitive ``a`` depends on ``b`` when one of ``a``'s *unblocking* operations
(send/recv/close/unlock) is reachable from one of ``b``'s *blocking*
operations (send/recv/lock/wait) — whether ``b``'s waiter can proceed hinges
on code that sits behind ``a``'s unblocker. Channels waited on by the same
``select`` depend on each other. Dependence is transitive.

``Pset(c)`` — the primitives GCatch must analyze together with channel
``c`` — contains ``c`` plus every primitive with a scope no larger than
``c``'s that is in a *circular* dependency with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.primitives import Primitive, PrimitiveMap
from repro.analysis.scope import Scope
from repro.ssa import cfg, ir


@dataclass
class DependencyGraph:
    edges: Dict[Primitive, Set[Primitive]] = field(default_factory=dict)

    def add(self, a: Primitive, b: Primitive) -> None:
        """Record: a depends on b."""
        self.edges.setdefault(a, set()).add(b)

    def depends(self, a: Primitive, b: Primitive) -> bool:
        return b in self.edges.get(a, set())

    def close_transitively(self) -> None:
        changed = True
        while changed:
            changed = False
            for a, deps in list(self.edges.items()):
                extra: Set[Primitive] = set()
                for b in deps:
                    extra |= self.edges.get(b, set())
                before = len(deps)
                deps |= extra
                if len(deps) != before:
                    changed = True

    def circular(self, a: Primitive, b: Primitive) -> bool:
        return self.depends(a, b) and self.depends(b, a)


def build_dependency_graph(
    program: ir.Program, call_graph: CallGraph, pmap: PrimitiveMap
) -> DependencyGraph:
    graph = DependencyGraph()
    prims = list(pmap)
    for a in prims:
        graph.edges.setdefault(a, set())
    # rule 1: unblocker of `a` reachable from a blocking op of `b`
    for a, b in _unblocker_edges(program, call_graph, prims):
        graph.add(a, b)
    # rule 2: channels in the same select depend on each other
    for a, b, _ in _select_pairs(prims):
        graph.add(a, b)
        graph.add(b, a)
    graph.close_transitively()
    return graph


def _unblocker_edges(
    program: ir.Program, call_graph: CallGraph, prims: List[Primitive]
) -> List[Tuple[Primitive, Primitive]]:
    """Rule 1 pairs ``(a, b)``: an unblocking op of ``a`` can execute after
    a blocking op of ``b``.

    An unblocker in another function counts when that function is in the
    blocking function's reach closure (calls and goroutine spawns); one in
    the same function counts only when the function's CFG orders it after
    the blocking op, even when the function can re-enter itself through a
    call. Both sides are indexed: unblockers by function, each blocking
    function's inter-procedural targets once, each function's CFG once.
    """
    unblockers: Dict[str, List[Tuple[Primitive, ir.Instr]]] = {}
    for a in prims:
        for op in a.operations:
            if op.unblocking:
                unblockers.setdefault(op.function, []).append((a, op.instr))
    owners = {fn: {a for a, _ in ops} for fn, ops in unblockers.items()}
    remote: Dict[str, Set[Primitive]] = {}
    local: Dict[str, cfg.ReachIndex] = {}
    pairs: List[Tuple[Primitive, Primitive]] = []
    for b in prims:
        deps: Set[Primitive] = set()
        for op in b.operations:
            if not op.blocking:
                continue
            fn = op.function
            targets = remote.get(fn)
            if targets is None:
                targets = remote[fn] = set()
                for callee in call_graph.reach_closure(fn):
                    if callee != fn and callee in owners:
                        targets |= owners[callee]
            deps |= targets
            func = program.functions.get(fn)
            if func is None or fn not in unblockers:
                continue
            index = local.get(fn)
            if index is None:
                index = local[fn] = cfg.ReachIndex(func)
            for a, instr in unblockers[fn]:
                if a not in deps and index.reaches(op.instr, instr):
                    deps.add(a)
        pairs.extend((a, b) for a in deps if a is not b)
    return pairs


def _select_pairs(prims: List[Primitive]) -> List[Tuple[Primitive, Primitive, ir.Instr]]:
    by_select: Dict[int, Set[Primitive]] = {}
    select_instr: Dict[int, ir.Instr] = {}
    for prim in prims:
        for op in prim.operations:
            if op.select_case is not None:
                by_select.setdefault(id(op.instr), set()).add(prim)
                select_instr[id(op.instr)] = op.instr
    pairs: List[Tuple[Primitive, Primitive, ir.Instr]] = []
    for key, group in by_select.items():
        members = list(group)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.append((a, b, select_instr[key]))
    return pairs


def compute_pset(
    channel: Primitive,
    dep_graph: DependencyGraph,
    scopes: Dict[Primitive, Scope],
) -> List[Primitive]:
    """Primitives analyzed together with ``channel`` (paper §3.2).

    A primitive joins Pset when its scope is strictly smaller (creation
    site breaks size ties, making the order total, so of two same-scope
    primitives exactly one analysis sees both). Context Done channels never
    join: the program cannot unblock them, only the runtime can.
    """
    my_key = _scope_key(channel, scopes[channel])
    # only the channel's own dependencies can be circular with it
    joined: Set[Primitive] = set()
    for other in dep_graph.edges.get(channel, ()):
        if other is channel or other.site.kind == "ctxdone":
            continue
        if _scope_key(other, scopes[other]) < my_key and dep_graph.depends(other, channel):
            joined.add(other)
    if not joined:
        return [channel]
    # members keep the order of ``scopes`` (program order)
    return [channel] + [p for p in scopes if p in joined]


def _scope_key(prim: Primitive, scope: Scope) -> Tuple[int, str, int, str]:
    return (scope.size, prim.site.function, prim.site.line, prim.site.label)
