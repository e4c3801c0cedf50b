"""Shared static safety checks for GFix (paper §4.1–§4.4).

GFix only patches bugs matching its formalization: two goroutines Go-A
(parent, creator of local channel ``c``) and Go-B (child), where Go-B is
blocked at operation ``o2`` because Go-A failed to conduct ``o1``. Before
transforming anything, GFix verifies:

* exactly two goroutines access ``c`` and the blocked one is the child;
* how many operations Go-B performs on ``c`` (once, for Strategies I/II);
* that unblocking ``o2`` causes no side effect beyond Go-B — no library
  calls, no other concurrency operations, no writes to variables defined
  outside Go-B after ``o2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.analysis.primitives import Operation, Primitive
from repro.detector.paths import OpEvent
from repro.detector.reporting import BugReport
from repro.ssa import cfg, ir


@dataclass
class BugShape:
    """The GFix-relevant anatomy of one BMOC bug."""

    channel: Primitive
    creator_func: str
    creation_line: int
    child_func: Optional[str]
    child_ops: List[Operation]
    parent_ops: List[Operation]
    blocked_event: Optional[OpEvent]
    blocked_in_child: bool
    spawn_in_loop: bool
    reject_reason: Optional[str] = None


REASON_PARENT_BLOCKED = "parent-blocked"
REASON_COMPLEX = "complex-goroutines"
REASON_SIDE_EFFECTS = "side-effects"
REASON_RECV_VALUE_USED = "recv-value-used"
REASON_NO_PATTERN = "no-pattern"


def analyze_shape(program: ir.Program, report: BugReport) -> BugShape:
    """Classify a BMOC bug against GFix's problem scope."""
    channel = report.primitive
    assert channel is not None
    creation = next((op for op in channel.operations if op.kind == "create"), None)
    creator_func = creation.function if creation else channel.site.function
    creation_line = creation.line if creation else channel.site.line
    non_create = [op for op in channel.operations if op.kind != "create"]
    accessing = {op.function for op in non_create}
    child_candidates = sorted(accessing - {creator_func})

    blocked_event = _blocked_event(report, channel)
    shape = BugShape(
        channel=channel,
        creator_func=creator_func,
        creation_line=creation_line,
        child_func=None,
        child_ops=[],
        parent_ops=[op for op in non_create if op.function == creator_func],
        blocked_event=blocked_event,
        blocked_in_child=False,
        spawn_in_loop=False,
    )
    if len(child_candidates) != 1:
        shape.reject_reason = REASON_COMPLEX
        return shape
    child_func = child_candidates[0]
    spawn = _spawn_instr(program, child_func)
    if spawn is None:
        shape.reject_reason = REASON_COMPLEX
        return shape
    shape.child_func = child_func
    shape.child_ops = [op for op in non_create if op.function == child_func]
    spawner = _containing_function(program, spawn)
    if spawner is not None:
        shape.spawn_in_loop = _in_loop(spawner, spawn)
    if blocked_event is None:
        shape.reject_reason = REASON_COMPLEX
        return shape
    blocked_func = _blocked_function(report)
    shape.blocked_in_child = blocked_func == child_func
    if not shape.blocked_in_child:
        shape.reject_reason = REASON_PARENT_BLOCKED
    return shape


def _blocked_event(report: BugReport, channel: Primitive) -> Optional[OpEvent]:
    for stop in report.stops:
        event = getattr(stop, "event", None)
        if isinstance(event, OpEvent) and event.prim is channel:
            return event
    return None


def _blocked_function(report: BugReport) -> Optional[str]:
    for stop in report.stops:
        event = getattr(stop, "event", None)
        if isinstance(event, OpEvent) and event.prim is report.primitive:
            if report.combination is not None:
                for goroutine in report.combination.goroutines:
                    if goroutine.gid == stop.gid:
                        return goroutine.path.function
    return None


def _spawn_instr(program: ir.Program, child_func: str) -> Optional[ir.Go]:
    for func in program:
        for instr in func.instructions():
            if isinstance(instr, ir.Go) and isinstance(instr.func_op, ir.FuncRef):
                if instr.func_op.name == child_func:
                    return instr
    return None


def _containing_function(program: ir.Program, instr: ir.Instr) -> Optional[ir.Function]:
    for func in program:
        for candidate in func.instructions():
            if candidate is instr:
                return func
    return None


def _in_loop(func: ir.Function, instr: ir.Instr) -> bool:
    block = cfg.instruction_block(func, instr)
    if block is None:
        return False
    # a block is in a loop when it can reach itself
    return any(cfg.block_reaches(succ, block) for succ in block.successors())


def op_in_loop(program: ir.Program, op: Operation) -> bool:
    func = program.functions.get(op.function)
    if func is None or op.instr is None:
        return False
    return _in_loop(func, op.instr)


def side_effects_after(
    program: ir.Program,
    func_name: str,
    o2_instr: ir.Instr,
    allow_ops_on: Optional[Primitive] = None,
    alias=None,
    exclude_reachable_before: bool = False,
) -> List[str]:
    """Describe side effects an unblocked Go-B would produce after ``o2``.

    With ``exclude_reachable_before`` (Strategy III), instructions that can
    also execute *before* ``o2`` — the body of the loop containing it — are
    not counted: they run in the original program regardless, so unblocking
    ``o2`` introduces no new behaviour through them.
    """
    func = program.functions.get(func_name)
    if func is None or o2_instr is None:
        return ["cannot locate o2"]
    after = _instructions_after(func, o2_instr)
    if exclude_reachable_before:
        before_ids = _instruction_ids_before(func, o2_instr)
        after = [i for i in after if id(i) not in before_ids]
    effects: List[str] = []
    allowed_sites = set()
    if allow_ops_on is not None and alias is not None:
        allowed_sites = {allow_ops_on.site}
    for instr in after:
        effect = _effect_of(instr, func, allowed_sites, alias)
        if effect is not None:
            effects.append(effect)
    return effects


def _instruction_ids_before(func: ir.Function, instr: ir.Instr) -> Set[int]:
    """ids of instructions on some path from entry up to (and incl.) instr."""
    target_block = cfg.instruction_block(func, instr)
    if target_block is None or func.entry is None:
        return set()
    out: Set[int] = set()
    for block in func.reachable_blocks():
        if block.id == target_block.id:
            instrs = list(block.all_instrs())
            idx = next(i for i, x in enumerate(instrs) if x is instr)
            out.update(id(x) for x in instrs[: idx + 1])
        elif cfg.block_reaches(block, target_block):
            out.update(id(x) for x in block.all_instrs())
    return out


def _instructions_after(func: ir.Function, instr: ir.Instr) -> List[ir.Instr]:
    block = cfg.instruction_block(func, instr)
    if block is None:
        return []
    out: List[ir.Instr] = []
    instrs = list(block.all_instrs())
    idx = next(i for i, x in enumerate(instrs) if x is instr)
    out.extend(instrs[idx + 1 :])
    seen: Set[int] = set()
    stack = list(block.successors())
    while stack:
        succ = stack.pop()
        if succ.id in seen or succ.id == block.id:
            continue
        seen.add(succ.id)
        out.extend(succ.all_instrs())
        stack.extend(succ.successors())
    return out


def _effect_of(instr: ir.Instr, func: ir.Function, allowed_sites, alias) -> Optional[str]:
    if isinstance(instr, (ir.Call, ir.Go)):
        target = instr.func_op
        name = target.name if isinstance(target, (ir.FuncRef, ir.MethodRef)) else "?"
        return f"calls {name} at line {instr.line}"
    if isinstance(instr, (ir.Send, ir.Recv, ir.Close, ir.RangeNext)):
        chan = instr.chan  # type: ignore[union-attr]
        if alias is not None and allowed_sites:
            if alias.sites_of(chan) and alias.sites_of(chan) <= allowed_sites:
                return None  # further ops on c itself are fine (Strategy III)
        return f"channel operation at line {instr.line}"
    if isinstance(instr, (ir.Lock, ir.Unlock, ir.WgAdd, ir.WgDone, ir.WgWait)):
        return f"lock/waitgroup operation at line {instr.line}"
    if isinstance(instr, ir.Select):
        return f"select at line {instr.line}"
    if isinstance(instr, ir.Assign) and instr.dst.name not in func.local_names:
        return f"writes outer variable {instr.dst.name} at line {instr.line}"
    if isinstance(instr, (ir.FieldSet, ir.IndexSet)):
        return f"writes shared structure at line {instr.line}"
    if isinstance(instr, ir.Fatal):
        return f"testing.Fatal at line {instr.line}"
    return None


def recv_value_used(program: ir.Program, op: Operation) -> bool:
    """Is the value received by ``op`` consumed anywhere?"""
    instr = op.instr
    if not isinstance(instr, ir.Recv) or instr.dst is None:
        return False
    target = instr.dst.name
    for func in program:
        for candidate in func.instructions():
            if candidate is instr:
                continue
            for used in candidate.uses():
                if isinstance(used, ir.Var) and used.name == target:
                    return True
    return False
