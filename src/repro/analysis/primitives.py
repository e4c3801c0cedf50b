"""Discovery of concurrency primitives and their operations (§3.1).

Primitives are identified by static creation site; operations are mapped to
primitives through the alias analysis, exactly as Algorithm 1's
``SearchSynPrimitives``/``SearchSynOperations`` steps do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.alias import AliasAnalysis, Site
from repro.analysis.callgraph import CallGraph
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

# operation kinds that park the executing goroutine until another acts
BLOCKING_KINDS = frozenset(["send", "recv", "lock", "rlock", "wait", "select", "condwait"])
# operation kinds that can release a parked partner
UNBLOCKING_KINDS = frozenset(["send", "recv", "close", "unlock", "runlock", "done", "signal"])


@dataclass
class Operation:
    """One operation on one primitive, at one instruction."""

    site: Site
    kind: str
    function: str
    instr: ir.Instr
    line: int
    select_case: Optional[ir.SelectCase] = None

    @property
    def blocking(self) -> bool:
        return self.kind in BLOCKING_KINDS

    @property
    def unblocking(self) -> bool:
        return self.kind in UNBLOCKING_KINDS

    def __repr__(self) -> str:
        return f"<{self.kind} {self.site!r} @{self.function}:{self.line}>"


@dataclass(eq=False)
class Primitive:
    site: Site
    operations: List[Operation] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.site.kind

    @property
    def is_channel(self) -> bool:
        return self.site.kind in ("chan", "ctxdone")

    @property
    def is_mutex(self) -> bool:
        return self.site.kind in ("mutex", "rwmutex")

    def ops_of_kind(self, *kinds: str) -> List[Operation]:
        return [op for op in self.operations if op.kind in kinds]

    def buffer_size(self) -> Optional[int]:
        """Static buffer size when the creation site's make() is constant."""
        for op in self.operations:
            if op.kind == "create" and isinstance(op.instr, ir.MakeChan):
                if isinstance(op.instr.size, ir.Const):
                    return int(op.instr.size.value or 0)
        if self.site.kind == "ctxdone":
            return 0
        return None

    def __repr__(self) -> str:
        return f"<Primitive {self.site!r} ({len(self.operations)} ops)>"


class PrimitiveMap:
    """All primitives of a program plus the operation index."""

    def __init__(self):
        self.primitives: Dict[Site, Primitive] = {}

    def add(self, site: Site, operation: Operation) -> None:
        self.primitives.setdefault(site, Primitive(site)).operations.append(operation)

    def channels(self) -> List[Primitive]:
        return [p for p in self.primitives.values() if p.is_channel]

    def mutexes(self) -> List[Primitive]:
        return [p for p in self.primitives.values() if p.is_mutex]

    def get(self, site: Site) -> Optional[Primitive]:
        return self.primitives.get(site)

    def __iter__(self):
        return iter(self.primitives.values())

    def __len__(self) -> int:
        return len(self.primitives)


_DEFER_OP = {
    DEFER_CLOSE: "close",
    DEFER_UNLOCK: "unlock",
    DEFER_RUNLOCK: "runlock",
    DEFER_LOCK: "lock",
    DEFER_RLOCK: "rlock",
    DEFER_WG_DONE: "done",
    DEFER_SEND: "send",
}


def find_primitives(
    program: ir.Program, call_graph: CallGraph, alias: AliasAnalysis
) -> PrimitiveMap:
    pmap = PrimitiveMap()
    for func in program:
        for instr in func.instructions():
            _index_instr(pmap, alias, func.name, instr)
    # keep only primitives with a known creation site or ctxdone origin;
    # opaque sites are deliberately excluded (they are the alias-analysis
    # blind spots and are not analyzable primitives)
    drop = [site for site in pmap.primitives if site.kind == "opaque"]
    for site in drop:
        del pmap.primitives[site]
    return pmap


def _index_instr(pmap: PrimitiveMap, alias: AliasAnalysis, fname: str, instr: ir.Instr) -> None:
    def record(op_kind: str, chan_op: ir.Operand, select_case: Optional[ir.SelectCase] = None,
               line: Optional[int] = None) -> None:
        for site in alias.sites_of(chan_op):
            pmap.add(
                site,
                Operation(
                    site=site,
                    kind=op_kind,
                    function=fname,
                    instr=instr,
                    line=line if line is not None else instr.line,
                    select_case=select_case,
                ),
            )

    if isinstance(instr, (ir.MakeChan, ir.MakeMutex, ir.MakeWaitGroup, ir.MakeCond)):
        site = alias.site_for_instruction(instr)
        if site is not None:
            pmap.add(site, Operation(site=site, kind="create", function=fname, instr=instr, line=instr.line))
    elif isinstance(instr, ir.CtxDone):
        site = alias.site_for_instruction(instr)
        if site is not None:
            pmap.add(site, Operation(site=site, kind="create", function=fname, instr=instr, line=instr.line))
    elif isinstance(instr, ir.Send):
        record("send", instr.chan)
    elif isinstance(instr, ir.Recv):
        record("recv", instr.chan)
    elif isinstance(instr, ir.RangeNext):
        record("recv", instr.chan)
    elif isinstance(instr, ir.Close):
        record("close", instr.chan)
    elif isinstance(instr, ir.Lock):
        record("rlock" if instr.read else "lock", instr.mutex)
    elif isinstance(instr, ir.Unlock):
        record("runlock" if instr.read else "unlock", instr.mutex)
    elif isinstance(instr, ir.WgAdd):
        record("add", instr.wg)
    elif isinstance(instr, ir.WgDone):
        record("done", instr.wg)
    elif isinstance(instr, ir.WgWait):
        record("wait", instr.wg)
    elif isinstance(instr, ir.CondWait):
        record("condwait", instr.cond)
    elif isinstance(instr, ir.CondSignal):
        record("signal", instr.cond)
    elif isinstance(instr, ir.Select):
        for case in instr.cases:
            kind = "send" if case.kind == "send" else "recv"
            record(kind, case.chan, select_case=case, line=case.line)
    elif isinstance(instr, ir.Defer):
        if isinstance(instr.func_op, ir.FuncRef) and instr.func_op.name in _DEFER_OP:
            record(_DEFER_OP[instr.func_op.name], instr.args[0])
