"""Call-graph construction (CHA-style) for MiniGo programs.

Reproduces both the capability and the documented imprecision of the
call-graph package the paper builds on (§5.1): direct calls and closure
invocations are resolved exactly; calls through method references or
function-valued variables are resolved by *signature matching*, and when
more than one candidate matches, GCatch "ignores the results" — which both
loses edges (missed bugs) and, where a blocking operation's unblocker sits
behind such a call, creates false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ssa import ir


@dataclass
class CallSite:
    caller: str
    instr: ir.Instr  # Call, Go or Defer
    callees: List[str]
    ambiguous: bool = False  # >1 candidate: edge dropped per the paper's rule


@dataclass
class CallGraph:
    program: ir.Program
    edges: Dict[str, Set[str]] = field(default_factory=dict)  # caller -> callees
    reverse: Dict[str, Set[str]] = field(default_factory=dict)  # callee -> callers
    sites: List[CallSite] = field(default_factory=list)
    ambiguous_sites: List[CallSite] = field(default_factory=list)
    # lazy memos; valid because the graph is immutable after build_call_graph.
    # Returned sets are shared — callers must not mutate them in place.
    _reach_memo: Dict[str, Set[str]] = field(default_factory=dict, repr=False)
    _spawn_memo: Dict[str, List] = field(default_factory=dict, repr=False)
    _closure_memo: Dict[str, Set[str]] = field(default_factory=dict, repr=False)
    _inverse_closure: Optional[Dict[str, Set[str]]] = field(default=None, repr=False)

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name, set())

    def callers(self, name: str) -> Set[str]:
        return self.reverse.get(name, set())

    def reachable_from(self, name: str) -> Set[str]:
        """All functions transitively callable from ``name`` (inclusive)."""
        memo = self._reach_memo.get(name)
        if memo is not None:
            return memo
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, set()) - seen)
        self._reach_memo[name] = seen
        return seen

    def spawn_sites(self, name: str) -> List[Tuple[ir.Go, Optional[str]]]:
        """Go instructions inside ``name`` with their resolved child function."""
        memo = self._spawn_memo.get(name)
        if memo is not None:
            return memo
        func = self.program.functions.get(name)
        if func is None:
            self._spawn_memo[name] = []
            return self._spawn_memo[name]
        out: List[Tuple[ir.Go, Optional[str]]] = []
        for instr in func.instructions():
            if isinstance(instr, ir.Go):
                out.append((instr, _static_target(instr.func_op)))
        self._spawn_memo[name] = out
        return out

    def reach_closure(self, name: str) -> Set[str]:
        """Call-reachable plus goroutine-spawn-reachable functions from
        ``name`` — the difference closure every primitive scope is built
        from. Computed once per root and shared by all primitives
        (:mod:`repro.analysis.scope` used to re-derive it per primitive)."""
        memo = self._closure_memo.get(name)
        if memo is not None:
            return memo
        closure = self.reachable_from(name) | self._spawn_reach(name)
        self._closure_memo[name] = closure
        return closure

    def covering_roots(self, names: Set[str]) -> Set[str]:
        """Program functions whose :meth:`reach_closure` contains every one
        of the (non-empty) ``names``: the intersection of their entries in
        the inverse closure (name → roots reaching it), built once per
        graph."""
        inverse = self._inverse_closure
        if inverse is None:
            inverse = {}
            for root in self.program.functions:
                for name in self.reach_closure(root):
                    inverse.setdefault(name, set()).add(root)
            self._inverse_closure = inverse
        rooted = sorted((inverse.get(name, set()) for name in names), key=len)
        return rooted[0].intersection(*rooted[1:])

    def _spawn_reach(self, name: str) -> Set[str]:
        """Functions reachable through goroutine spawns from ``name``'s call tree."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for reachable in self.reachable_from(current):
                for _, child in self.spawn_sites(reachable):
                    if child is not None and child not in seen:
                        seen.add(child)
                        frontier.append(child)
        return seen


def _static_target(op: ir.Operand) -> Optional[str]:
    if isinstance(op, ir.FuncRef) and not op.name.startswith("$"):
        return op.name
    return None


def build_call_graph(program: ir.Program) -> CallGraph:
    graph = CallGraph(program)
    names = set(program.functions)
    for func in program:
        graph.edges.setdefault(func.name, set())
        for instr in func.instructions():
            if isinstance(instr, (ir.Call, ir.Go, ir.Defer)):
                site = _resolve_site(program, func.name, instr, names)
                if site is None:
                    continue
                graph.sites.append(site)
                if site.ambiguous:
                    graph.ambiguous_sites.append(site)
                    continue
                for callee in site.callees:
                    graph.edges.setdefault(func.name, set()).add(callee)
                    graph.reverse.setdefault(callee, set()).add(func.name)
    return graph


def _resolve_site(
    program: ir.Program, caller: str, instr: ir.Instr, names: Set[str]
) -> Optional[CallSite]:
    func_op = instr.func_op  # type: ignore[union-attr]
    if isinstance(func_op, ir.FuncRef):
        if func_op.name.startswith("$"):
            return None  # builtin defer pseudo-op
        if func_op.name in names:
            return CallSite(caller, instr, [func_op.name])
        return CallSite(caller, instr, [])  # external stub
    if isinstance(func_op, ir.MethodRef):
        candidates = [n for n in names if n.endswith("." + func_op.name)]
        if len(candidates) == 1:
            return CallSite(caller, instr, candidates)
        return CallSite(caller, instr, candidates, ambiguous=len(candidates) > 1)
    if isinstance(func_op, ir.Var):
        # function-pointer call: signature matching by parameter count
        arity = len(instr.args)  # type: ignore[union-attr]
        candidates = [
            n
            for n in names
            if len(program.functions[n].params) == arity and "." not in n
        ]
        if len(candidates) == 1:
            return CallSite(caller, instr, candidates)
        return CallSite(caller, instr, candidates, ambiguous=len(candidates) > 1)
    return None


def transitive_touchers(graph: CallGraph, direct: Set[str]) -> Set[str]:
    """Functions that reach a function in ``direct`` through calls."""
    out = set(direct)
    changed = True
    while changed:
        changed = False
        for caller, callees in graph.edges.items():
            if caller not in out and callees & out:
                out.add(caller)
                changed = True
    return out
