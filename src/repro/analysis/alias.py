"""Andersen-style alias analysis for concurrency primitives.

Each primitive is identified by its *static creation site* (§3.1), and the
analysis answers "which creation sites can this operand refer to?". It is
flow-insensitive over the builder's unique register names, inclusion-based,
and inter-procedural along resolved call edges.

The two imprecision modes the paper attributes its alias false positives to
(§5.2) are reproduced deliberately:

* a channel *sent through another channel* is not tracked — the receive
  side gets a fresh opaque site (15 of the paper's 51 FPs);
* a channel *stored in a slice/array* is not unified with loads from the
  slice — element loads get a fresh opaque site (2 FPs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.ssa import ir


@dataclass(frozen=True)
class Site:
    """An abstract object: the static creation site of a primitive/value."""

    kind: str  # 'chan' | 'mutex' | 'rwmutex' | 'waitgroup' | 'ctxdone' | 'opaque'
    function: str
    line: int
    label: str = ""

    def __repr__(self) -> str:
        suffix = f":{self.label}" if self.label else ""
        return f"{self.kind}@{self.function}:{self.line}{suffix}"


class AliasAnalysis:
    """Computes points-to sets for every register name in the program."""

    def __init__(self, program: ir.Program, call_graph: CallGraph):
        self.program = program
        self.call_graph = call_graph
        self.points_to: Dict[str, Set[Site]] = {}
        # field-based heap locations: ('field', struct_hint, field_name)
        self._heap: Dict[Tuple[str, str], Set[Site]] = {}
        self._subset: Dict[str, Set[str]] = {}  # src name -> dst names
        self._field_writes: List[Tuple[str, str]] = []  # (field_key, src_name)
        self._field_reads: List[Tuple[str, str]] = []  # (dst_name, field_key)
        self._site_of_instr: Dict[int, Site] = {}

    # -- public API ---------------------------------------------------------

    def sites_of(self, op: ir.Operand) -> Set[Site]:
        if isinstance(op, ir.Var):
            return self.points_to.get(op.name, set())
        return set()

    def site_for_instruction(self, instr: ir.Instr) -> Optional[Site]:
        return self._site_of_instr.get(id(instr))

    # -- constraint generation ----------------------------------------------

    def run(self) -> "AliasAnalysis":
        for func in self.program:
            self._collect(func)
        self._solve()
        return self

    def _add_site(self, name: str, site: Site) -> None:
        self.points_to.setdefault(name, set()).add(site)

    def _add_subset(self, src: str, dst: str) -> None:
        self._subset.setdefault(src, set()).add(dst)

    def _operand_name(self, op: ir.Operand) -> Optional[str]:
        return op.name if isinstance(op, ir.Var) else None

    def _collect(self, func: ir.Function) -> None:
        for instr in func.instructions():
            self._collect_instr(func, instr)

    def _collect_instr(self, func: ir.Function, instr: ir.Instr) -> None:
        if isinstance(instr, ir.MakeChan):
            site = Site("chan", func.name, instr.line, label=instr.dst.name)
            self._site_of_instr[id(instr)] = site
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.MakeMutex):
            kind = "rwmutex" if instr.rw else "mutex"
            site = Site(kind, func.name, instr.line, label=instr.dst.name)
            self._site_of_instr[id(instr)] = site
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.MakeWaitGroup):
            site = Site("waitgroup", func.name, instr.line, label=instr.dst.name)
            self._site_of_instr[id(instr)] = site
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.MakeCond):
            site = Site("cond", func.name, instr.line, label=instr.dst.name)
            self._site_of_instr[id(instr)] = site
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.CtxDone):
            # the Done channel of a context: keyed by the context operand's
            # root name so repeated ctx.Done() calls agree
            ctx_name = self._operand_name(instr.ctx) or "ctx"
            root = ctx_name.split("$")[0]
            site = Site("ctxdone", "<context>", 0, label=root)
            self._site_of_instr[id(instr)] = site
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.Assign):
            src = self._operand_name(instr.src)
            if src is not None:
                self._add_subset(src, instr.dst.name)
        elif isinstance(instr, ir.Recv):
            # channels-through-channels are NOT tracked: the received value
            # gets an opaque site (deliberate imprecision, paper §5.2)
            if instr.dst is not None:
                site = Site("opaque", func.name, instr.line, label="recv")
                self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.IndexGet):
            # slice loads are NOT unified with stores (deliberate imprecision)
            site = Site("opaque", func.name, instr.line, label="index")
            self._add_site(instr.dst.name, site)
        elif isinstance(instr, ir.FieldGet):
            key = (self._obj_hint(instr.obj), instr.field_name)
            self._field_reads.append((instr.dst.name, self._field_key(key)))
        elif isinstance(instr, ir.FieldSet):
            src = self._operand_name(instr.value)
            if src is not None:
                key = (self._obj_hint(instr.obj), instr.field_name)
                self._field_writes.append((self._field_key(key), src))
        elif isinstance(instr, ir.MakeStruct):
            for fname, op in instr.fields:
                src = self._operand_name(op)
                if src is not None:
                    key = (instr.type_name or instr.dst.name.split("$")[0], fname)
                    self._field_writes.append((self._field_key(key), src))
        elif isinstance(instr, (ir.Call, ir.Go)):
            self._collect_call(func, instr)
        elif isinstance(instr, ir.Select):
            for case in instr.cases:
                if case.dst is not None:
                    site = Site("opaque", func.name, case.line, label="recv")
                    self._add_site(case.dst.name, site)
        elif isinstance(instr, ir.RangeNext):
            if instr.dst is not None:
                site = Site("opaque", func.name, instr.line, label="recv")
                self._add_site(instr.dst.name, site)

    def _obj_hint(self, op: ir.Operand) -> str:
        """Struct type name when known, else the object's root register name."""
        name = self._operand_name(op)
        if name is None:
            return "?"
        kind = getattr(self.program, "kinds", {}).get(name, "any")
        if kind.startswith("struct:"):
            return kind.split(":", 1)[1]
        return name.split("$")[0]

    def _field_key(self, key: Tuple[str, str]) -> str:
        # field-based: unify on the field name; the object hint keeps
        # distinct structs with same-named fields apart when known
        return f"{key[0]}.{key[1]}"

    def _collect_call(self, func: ir.Function, instr: ir.Instr) -> None:
        callees = self._callees_of(instr)
        args = instr.args  # type: ignore[union-attr]
        for callee_name in callees:
            callee = self.program.functions.get(callee_name)
            if callee is None:
                continue
            for i, arg in enumerate(args):
                src = self._operand_name(arg)
                if src is not None and i < len(callee.params):
                    self._add_subset(src, callee.params[i])
            if isinstance(instr, ir.Call) and instr.dsts:
                for ret in self._return_operands(callee):
                    src = self._operand_name(ret)
                    if src is not None:
                        for i, dst in enumerate(instr.dsts):
                            # conservatively join all returns into all dsts of
                            # multi-value calls (positions are approximate)
                            self._add_subset(src, dst.name)

    def _callees_of(self, instr: ir.Instr) -> List[str]:
        for site in self.call_graph.sites:
            if site.instr is instr:
                return [] if site.ambiguous else site.callees
        func_op = instr.func_op  # type: ignore[union-attr]
        if isinstance(func_op, ir.FuncRef) and func_op.name in self.program.functions:
            return [func_op.name]
        return []

    def _return_operands(self, func: ir.Function) -> List[ir.Operand]:
        out: List[ir.Operand] = []
        for block in func.reachable_blocks():
            if isinstance(block.terminator, ir.Return):
                out.extend(block.terminator.values)
        return out

    # -- fixpoint -------------------------------------------------------------

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for src, dsts in self._subset.items():
                src_sites = self.points_to.get(src)
                if not src_sites:
                    continue
                for dst in dsts:
                    dst_sites = self.points_to.setdefault(dst, set())
                    before = len(dst_sites)
                    dst_sites.update(src_sites)
                    if len(dst_sites) != before:
                        changed = True
            for key, src in self._field_writes:
                src_sites = self.points_to.get(src)
                if not src_sites:
                    continue
                heap = self._heap.setdefault(("field", key), set())
                before = len(heap)
                heap.update(src_sites)
                if len(heap) != before:
                    changed = True
            for dst, key in self._field_reads:
                heap = self._heap.get(("field", key))
                if not heap:
                    continue
                dst_sites = self.points_to.setdefault(dst, set())
                before = len(dst_sites)
                dst_sites.update(heap)
                if len(dst_sites) != before:
                    changed = True


def run_alias_analysis(program: ir.Program, call_graph: CallGraph) -> AliasAnalysis:
    return AliasAnalysis(program, call_graph).run()
