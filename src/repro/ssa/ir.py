"""Register-transfer IR for MiniGo, standing in for Go's ``go/ssa`` package.

Functions are lowered to basic blocks of instructions over named virtual
registers. Every instruction carries its source line, and channel/mutex
operations are first-class instruction kinds so the detector, the fixer and
the runtime interpreter all consume the same representation — mirroring how
GCatch, GFix and the authors' test harness all sit on ``go/ssa``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union


# ---------------------------------------------------------------------------
# Operands


@dataclass(frozen=True)
class Const:
    value: object

    def __repr__(self) -> str:
        return f"#{self.value!r}"


@dataclass(frozen=True)
class Var:
    """A named virtual register; names are made unique per lexical binding."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class FuncRef:
    """A reference to a declared function or a lowered function literal."""

    name: str

    def __repr__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class MethodRef:
    """A method call whose receiver type is not statically known.

    The CHA call graph resolves this to *every* method with a matching name,
    reproducing the interface over-approximation the paper identifies as a
    false-positive source (§5.1: "the analysis reports all functions matching
    the signature as callees").
    """

    name: str

    def __repr__(self) -> str:
        return f"@?.{self.name}"


Operand = Union[Const, Var, FuncRef, MethodRef]


# ---------------------------------------------------------------------------
# Instructions


@dataclass
class Instr:
    line: int = 0

    def uses(self) -> List[Operand]:
        """Operands read by this instruction (for analyses)."""
        return []

    def defs(self) -> List[Var]:
        """Registers written by this instruction."""
        return []


@dataclass
class MakeChan(Instr):
    dst: Var = None  # type: ignore[assignment]
    elem_type: str = ""
    size: Operand = Const(0)

    def uses(self) -> List[Operand]:
        return [self.size]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class MakeMutex(Instr):
    """Materializes a mutex/rwmutex value (from ``var mu sync.Mutex``)."""

    dst: Var = None  # type: ignore[assignment]
    rw: bool = False

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class MakeWaitGroup(Instr):
    dst: Var = None  # type: ignore[assignment]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class MakeCond(Instr):
    """Materializes a condition variable (``var c sync.Cond``)."""

    dst: Var = None  # type: ignore[assignment]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class CondWait(Instr):
    cond: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.cond]


@dataclass
class CondSignal(Instr):
    cond: Operand = None  # type: ignore[assignment]
    broadcast: bool = False

    def uses(self) -> List[Operand]:
        return [self.cond]


@dataclass
class MakeContext(Instr):
    """Materializes a context whose Done() channel is program-scoped.

    ``cancel_dst`` (from ``context.WithCancel``) receives a cancel function
    that closes the Done channel.
    """

    dst: Var = None  # type: ignore[assignment]
    cancel_dst: Optional[Var] = None

    def defs(self) -> List[Var]:
        return [v for v in (self.dst, self.cancel_dst) if v is not None]


@dataclass
class MakeSlice(Instr):
    dst: Var = None  # type: ignore[assignment]
    elem_type: str = ""
    size: Operand = Const(0)

    def uses(self) -> List[Operand]:
        return [self.size]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class MakeStruct(Instr):
    dst: Var = None  # type: ignore[assignment]
    type_name: str = ""
    fields: List[Tuple[str, Operand]] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return [op for _, op in self.fields]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class Send(Instr):
    chan: Operand = None  # type: ignore[assignment]
    value: Operand = Const(None)

    def uses(self) -> List[Operand]:
        return [self.chan, self.value]


@dataclass
class Recv(Instr):
    dst: Optional[Var] = None
    ok_dst: Optional[Var] = None
    chan: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.chan]

    def defs(self) -> List[Var]:
        return [v for v in (self.dst, self.ok_dst) if v is not None]


@dataclass
class Close(Instr):
    chan: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.chan]


@dataclass
class Lock(Instr):
    mutex: Operand = None  # type: ignore[assignment]
    read: bool = False  # RLock

    def uses(self) -> List[Operand]:
        return [self.mutex]


@dataclass
class Unlock(Instr):
    mutex: Operand = None  # type: ignore[assignment]
    read: bool = False  # RUnlock

    def uses(self) -> List[Operand]:
        return [self.mutex]


@dataclass
class WgAdd(Instr):
    wg: Operand = None  # type: ignore[assignment]
    delta: Operand = Const(1)

    def uses(self) -> List[Operand]:
        return [self.wg, self.delta]


@dataclass
class WgDone(Instr):
    wg: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.wg]


@dataclass
class WgWait(Instr):
    wg: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.wg]


@dataclass
class Go(Instr):
    """Spawn a goroutine running ``func_op(args...)``."""

    func_op: Operand = None  # type: ignore[assignment]
    args: List[Operand] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return [self.func_op, *self.args]


@dataclass
class Call(Instr):
    dsts: List[Var] = field(default_factory=list)
    func_op: Operand = None  # type: ignore[assignment]
    args: List[Operand] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return [self.func_op, *self.args]

    def defs(self) -> List[Var]:
        return list(self.dsts)


@dataclass
class Defer(Instr):
    func_op: Operand = None  # type: ignore[assignment]
    args: List[Operand] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return [self.func_op, *self.args]


@dataclass
class Fatal(Instr):
    """``t.Fatal()`` / ``t.Fatalf()``: ends the calling goroutine."""

    testing: Operand = None  # type: ignore[assignment]
    method: str = "Fatal"

    def uses(self) -> List[Operand]:
        return [self.testing]


@dataclass
class Sleep(Instr):
    duration: Operand = Const(1)

    def uses(self) -> List[Operand]:
        return [self.duration]


@dataclass
class Println(Instr):
    args: List[Operand] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return list(self.args)


@dataclass
class BinOp(Instr):
    dst: Var = None  # type: ignore[assignment]
    op: str = ""
    left: Operand = None  # type: ignore[assignment]
    right: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.left, self.right]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class UnOp(Instr):
    dst: Var = None  # type: ignore[assignment]
    op: str = ""
    operand: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.operand]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class Assign(Instr):
    dst: Var = None  # type: ignore[assignment]
    src: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.src]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class FieldGet(Instr):
    dst: Var = None  # type: ignore[assignment]
    obj: Operand = None  # type: ignore[assignment]
    field_name: str = ""

    def uses(self) -> List[Operand]:
        return [self.obj]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class FieldSet(Instr):
    obj: Operand = None  # type: ignore[assignment]
    field_name: str = ""
    value: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.obj, self.value]


@dataclass
class IndexGet(Instr):
    dst: Var = None  # type: ignore[assignment]
    seq: Operand = None  # type: ignore[assignment]
    index: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.seq, self.index]

    def defs(self) -> List[Var]:
        return [self.dst]


@dataclass
class IndexSet(Instr):
    seq: Operand = None  # type: ignore[assignment]
    index: Operand = None  # type: ignore[assignment]
    value: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.seq, self.index, self.value]


@dataclass
class CtxDone(Instr):
    """``ctx.Done()``: loads the context's completion channel."""

    dst: Var = None  # type: ignore[assignment]
    ctx: Operand = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.ctx]

    def defs(self) -> List[Var]:
        return [self.dst]


# ---------------------------------------------------------------------------
# Terminators


@dataclass
class Terminator(Instr):
    def successors(self) -> List["Block"]:
        return []


@dataclass
class Jump(Terminator):
    target: "Block" = None  # type: ignore[assignment]

    def successors(self) -> List["Block"]:
        return [self.target]


@dataclass
class BranchCond:
    """Static description of a branch condition for infeasible-path pruning.

    GCatch "inspects branch conditions only involving read-only variables and
    constants" (§3.3); ``read_only`` records whether that applies here.
    """

    var: Optional[str] = None
    op: str = ""
    const: object = None
    read_only: bool = False


@dataclass
class CondJump(Terminator):
    cond: Operand = None  # type: ignore[assignment]
    true_block: "Block" = None  # type: ignore[assignment]
    false_block: "Block" = None  # type: ignore[assignment]
    branch_info: Optional[BranchCond] = None

    def uses(self) -> List[Operand]:
        return [self.cond]

    def successors(self) -> List["Block"]:
        return [self.true_block, self.false_block]


@dataclass
class SelectCase:
    """One communication case of a ``select`` terminator."""

    kind: str = "recv"  # 'recv' | 'send'
    chan: Operand = None  # type: ignore[assignment]
    value: Optional[Operand] = None  # for sends
    dst: Optional[Var] = None  # for recvs
    ok_dst: Optional[Var] = None
    target: "Block" = None  # type: ignore[assignment]
    line: int = 0


@dataclass
class Select(Terminator):
    cases: List[SelectCase] = field(default_factory=list)
    default_target: Optional["Block"] = None

    def uses(self) -> List[Operand]:
        ops: List[Operand] = []
        for case in self.cases:
            ops.append(case.chan)
            if case.value is not None:
                ops.append(case.value)
        return ops

    def defs(self) -> List[Var]:
        out: List[Var] = []
        for case in self.cases:
            if case.dst is not None:
                out.append(case.dst)
            if case.ok_dst is not None:
                out.append(case.ok_dst)
        return out

    def successors(self) -> List["Block"]:
        succ = [case.target for case in self.cases]
        if self.default_target is not None:
            succ.append(self.default_target)
        return succ


@dataclass
class Return(Terminator):
    values: List[Operand] = field(default_factory=list)

    def uses(self) -> List[Operand]:
        return list(self.values)


@dataclass
class Panic(Terminator):
    message: Operand = Const("panic")

    def uses(self) -> List[Operand]:
        return [self.message]


@dataclass
class RangeNext(Terminator):
    """``for v := range ch``: receive-or-exit loop head over a channel."""

    dst: Optional[Var] = None
    chan: Operand = None  # type: ignore[assignment]
    body: "Block" = None  # type: ignore[assignment]
    done: "Block" = None  # type: ignore[assignment]

    def uses(self) -> List[Operand]:
        return [self.chan]

    def defs(self) -> List[Var]:
        return [self.dst] if self.dst is not None else []

    def successors(self) -> List["Block"]:
        return [self.body, self.done]


# ---------------------------------------------------------------------------
# Blocks / Functions / Program


class Block:
    """A basic block: straight-line instructions plus one terminator."""

    _counter = 0

    def __init__(self, label: str = ""):
        Block._counter += 1
        self.id = Block._counter
        self.label = label or f"b{self.id}"
        self.instrs: List[Instr] = []
        self.terminator: Optional[Terminator] = None

    def append(self, instr: Instr) -> None:
        if self.terminator is not None:
            raise ValueError(f"block {self.label} already terminated")
        self.instrs.append(instr)

    def terminate(self, term: Terminator) -> None:
        if self.terminator is None:
            self.terminator = term

    @property
    def terminated(self) -> bool:
        return self.terminator is not None

    def all_instrs(self) -> Iterator[Instr]:
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    def successors(self) -> List["Block"]:
        if self.terminator is None:
            return []
        return self.terminator.successors()

    def __repr__(self) -> str:
        return f"<Block {self.label}>"


class Function:
    """A lowered function: entry block, params, and metadata for analyses.

    IR is frozen once :class:`repro.ssa.builder.ModuleBuilder` returns it:
    nothing else writes ``blocks``, ``instrs`` or ``terminator``. So the
    block order and the instruction sequence are computed once, on first
    read, and every analysis shares them.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        result_count: int = 0,
        decl_line: int = 0,
        is_closure: bool = False,
        parent: Optional["Function"] = None,
    ):
        self.name = name
        self.params = list(params)
        self.result_count = result_count
        self.decl_line = decl_line
        self.is_closure = is_closure
        self.parent = parent
        self.blocks: List[Block] = []
        self.entry: Optional[Block] = None
        # names of free variables a closure reads from its lexical parent
        self.free_vars: List[str] = []
        # every register declared inside this function (params + locals)
        self.local_names: set = set()
        # interface-like calls: callee could not be resolved statically
        self.dynamic_call_sites: List[Call] = []
        self._reachable: Optional[Tuple[Block, ...]] = None
        self._instrs: Optional[Tuple[Instr, ...]] = None

    def new_block(self, label: str = "") -> Block:
        block = Block(label)
        self.blocks.append(block)
        if self.entry is None:
            self.entry = block
        return block

    def reachable_blocks(self) -> Tuple[Block, ...]:
        """Blocks reachable from entry, in DFS preorder (memoized)."""
        if self._reachable is not None:
            return self._reachable
        order: List[Block] = []
        if self.entry is not None:
            seen: Set[int] = set()
            stack = [self.entry]
            while stack:
                block = stack.pop()
                if block.id in seen:
                    continue
                seen.add(block.id)
                order.append(block)
                stack.extend(reversed(block.successors()))
        self._reachable = tuple(order)
        return self._reachable

    def instructions(self) -> Iterator[Instr]:
        """Every instruction of the reachable blocks, terminators included,
        in block order (memoized)."""
        instrs = self._instrs
        if instrs is None:
            instrs = self._instrs = tuple(
                instr for block in self.reachable_blocks() for instr in block.all_instrs()
            )
        return iter(instrs)

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Program:
    """A whole lowered MiniGo program: all functions plus the source file."""

    def __init__(self, file, functions: Dict[str, Function]):
        self.file = file
        self.functions = functions
        # register name -> coarse kind ('chan', 'mutex', 'struct:Name', ...),
        # populated by the builder
        self.kinds: Dict[str, str] = {}

    @property
    def filename(self) -> str:
        return self.file.filename

    def function(self, name: str) -> Function:
        return self.functions[name]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())


BLOCKING_KINDS = (Send, Recv, Lock, WgWait, Select, RangeNext, CondWait)
CHANNEL_OP_KINDS = (MakeChan, Send, Recv, Close, Select, RangeNext)
