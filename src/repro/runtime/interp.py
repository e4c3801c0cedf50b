"""IR interpreter: executes MiniGo programs goroutine by goroutine.

The interpreter is the reproduction's testbed. Blocking semantics are
implemented with *offers*: a goroutine that cannot complete a channel/mutex
operation parks, publishing what it is waiting for; a running goroutine
completes a parked partner's offer directly (rendezvous), matching the Go
runtime. A choice policy (a seeded RNG, a replayed trace or the explorer)
drives both goroutine scheduling and ``select``'s choice among ready cases —
the nondeterminism at the heart of bugs like Figure 1 of the paper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.choices import ChoicePolicy
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
from repro.runtime.values import (
    CancelFunc,
    Channel,
    CondVal,
    Closure,
    ContextVal,
    Env,
    GoPanic,
    MutexVal,
    SliceVal,
    StructVal,
    WaitGroupVal,
    zero_value,
)

RUNNABLE = "runnable"
BLOCKED = "blocked"
DONE = "done"
PANICKED = "panicked"


class Offer:
    """What a parked goroutine is waiting for."""

    __slots__ = ("kind", "obj", "value")

    def __init__(self, kind: str, obj: Any, value: Any = None):
        self.kind = kind  # 'send' | 'recv' | 'lock' | 'rlock' | 'wg'
        self.obj = obj
        self.value = value

    def __repr__(self) -> str:
        return f"Offer({self.kind}, {self.obj!r})"


class Frame:
    """One function activation."""

    __slots__ = ("func", "env", "block", "idx", "deferred", "dsts", "returning", "ret_values")

    def __init__(self, func: ir.Function, env: Env, dsts: Optional[List[ir.Var]] = None):
        self.func = func
        self.env = env
        self.block: ir.Block = func.entry  # type: ignore[assignment]
        self.idx = 0
        self.deferred: List[Tuple[Any, List[Any]]] = []
        self.dsts = dsts or []
        self.returning = False
        self.ret_values: List[Any] = []

    def current_instr(self) -> Optional[ir.Instr]:
        if self.idx < len(self.block.instrs):
            return self.block.instrs[self.idx]
        return self.block.terminator


class Goroutine:
    def __init__(self, gid: int, frame: Frame):
        self.gid = gid
        self.frames: List[Frame] = [frame]
        self.status = RUNNABLE
        self.offers: List[Offer] = []
        self.resume_action: Optional[Tuple] = None
        self.park_time = 0
        self.sleep_until = 0
        self.steps = 0
        self.blocked_line = 0
        self.blocked_kind = ""
        self.panic_message: Optional[str] = None

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    @property
    def done(self) -> bool:
        return self.status in (DONE, PANICKED)

    def park(self, offers: List[Offer], line: int, kind: str, clock: int) -> None:
        self.status = BLOCKED
        self.offers = offers
        self.park_time = clock
        self.blocked_line = line
        self.blocked_kind = kind

    def wake(self, resume_action: Optional[Tuple] = None) -> None:
        self.status = RUNNABLE
        self.offers = []
        if resume_action is not None:
            self.resume_action = resume_action


class Interpreter:
    """Holds all goroutines and executes single instructions."""

    def __init__(self, program: ir.Program, policy: ChoicePolicy, collector=None):
        self.program = program
        self.policy = policy
        self.collector = collector  # repro.obs.Collector | None (hot path: one check)
        self.goroutines: Dict[int, Goroutine] = {}
        self._next_gid = 0
        self.clock = 0
        self.output: List[str] = []
        self.panicked = False
        self.panic_message: Optional[str] = None
        self.test_failed = False
        # the scheduling loop's counters (``run_program``): steps taken while
        # the entry goroutine ran, and steps taken draining the others after
        # it returned; kept here so a checkpoint carries them
        # (:mod:`repro.runtime.checkpoint`)
        self.steps = 0
        self.drain_steps = 0

    # -- goroutine management ---------------------------------------------

    def spawn(self, func: ir.Function, env: Env) -> Goroutine:
        gid = self._next_gid
        self._next_gid += 1
        goroutine = Goroutine(gid, Frame(func, env))
        self.goroutines[gid] = goroutine
        if self.collector is not None:
            self.collector.count("run.goroutines")
        return goroutine

    def parked(self, kind: str, obj: Any) -> List[Goroutine]:
        """Blocked goroutines with a matching offer, oldest first."""
        matches = [
            g
            for g in self.goroutines.values()
            if g.status == BLOCKED and any(o.kind == kind and o.obj is obj for o in g.offers)
        ]
        matches.sort(key=lambda g: g.park_time)
        return matches

    def _wake_all_on(self, obj: Any) -> None:
        for goroutine in self.goroutines.values():
            if goroutine.status == BLOCKED and any(o.obj is obj for o in goroutine.offers):
                goroutine.wake()

    # -- operand evaluation -------------------------------------------------

    def value_of(self, op: ir.Operand, env: Env) -> Any:
        if isinstance(op, ir.Const):
            return op.value
        if isinstance(op, ir.Var):
            try:
                return env.lookup(op.name)
            except KeyError:
                return None
        if isinstance(op, ir.FuncRef):
            func = self.program.functions.get(op.name)
            if func is not None and func.is_closure:
                # the closure may outlive this frame and run on another
                # goroutine: everything it captures becomes shared state
                env.mark_shared()
                return Closure(op.name, env)
            return op
        if isinstance(op, ir.MethodRef):
            return op
        raise TypeError(f"unknown operand {op!r}")

    def _store(self, env: Env, var: Optional[ir.Var], value: Any) -> None:
        if var is not None:
            env.assign(var.name, value)

    # -- stepping -------------------------------------------------------------

    def step(self, goroutine: Goroutine) -> None:
        """Execute one instruction (or defer-drain action) of a goroutine."""
        self.clock += 1
        goroutine.steps += 1
        frame = goroutine.frame
        try:
            if frame.returning:
                self._drain_defer(goroutine)
                return
            instr = frame.current_instr()
            if instr is None:
                # fell off a block with no terminator: treat as return
                self._begin_return(goroutine, [])
                return
            handler = _HANDLERS.get(type(instr))
            if handler is None:
                raise GoPanic(f"unknown instruction {type(instr).__name__}")
            handler(self, goroutine, frame, instr)
        except GoPanic as panic:
            self._handle_panic(goroutine, str(panic))

    def _advance(self, frame: Frame) -> None:
        frame.idx += 1

    def _jump(self, frame: Frame, block: ir.Block) -> None:
        frame.block = block
        frame.idx = 0

    # -- panic / return / defer --------------------------------------------

    def _handle_panic(self, goroutine: Goroutine, message: str) -> None:
        # Run deferred ops of every frame, then kill the goroutine. A panic
        # in any goroutine crashes the whole Go program; the scheduler
        # observes `panicked` and stops.
        while goroutine.frames:
            frame = goroutine.frames[-1]
            while frame.deferred:
                target, args = frame.deferred.pop()
                try:
                    self._run_defer_nonblocking(target, args, goroutine)
                except GoPanic:
                    pass
            goroutine.frames.pop()
        goroutine.status = PANICKED
        goroutine.panic_message = message
        self.panicked = True
        if self.panic_message is None:
            self.panic_message = message

    def _run_defer_nonblocking(self, target: Any, args: List[Any], goroutine: Goroutine) -> None:
        """Best-effort execution of a deferred op during panic unwinding."""
        if isinstance(target, ir.FuncRef) and target.name == DEFER_CLOSE:
            chan = args[0]
            if isinstance(chan, Channel) and not chan.closed:
                chan.closed = True
                self._wake_all_on(chan)
            return
        if isinstance(target, ir.FuncRef) and target.name in (DEFER_UNLOCK, DEFER_RUNLOCK):
            self._unlock(args[0], read=target.name == DEFER_RUNLOCK)
            return
        if isinstance(target, ir.FuncRef) and target.name == DEFER_WG_DONE:
            self._wg_done(args[0])
            return
        # deferred function calls during a panic are skipped if they block

    def _begin_return(self, goroutine: Goroutine, values: List[Any]) -> None:
        frame = goroutine.frame
        frame.returning = True
        frame.ret_values = values

    def _drain_defer(self, goroutine: Goroutine) -> None:
        frame = goroutine.frame
        if frame.deferred:
            target, args = frame.deferred.pop()
            self._invoke_deferred(goroutine, target, args)
            return
        # all defers done: pop the frame and deliver results
        goroutine.frames.pop()
        if not goroutine.frames:
            goroutine.status = DONE
            return
        caller = goroutine.frame
        values = frame.ret_values
        for i, dst in enumerate(frame.dsts):
            value = values[i] if i < len(values) else 0
            caller.env.assign(dst.name, value)
        self._advance(caller)

    def _invoke_deferred(self, goroutine: Goroutine, target: Any, args: List[Any]) -> None:
        if isinstance(target, ir.FuncRef) and target.name == DEFER_CLOSE:
            self._close_channel(args[0])
            return
        if isinstance(target, ir.FuncRef) and target.name in (DEFER_UNLOCK, DEFER_RUNLOCK):
            self._unlock(args[0], read=target.name == DEFER_RUNLOCK)
            return
        if isinstance(target, ir.FuncRef) and target.name == DEFER_WG_DONE:
            self._wg_done(args[0])
            return
        if isinstance(target, ir.FuncRef) and target.name == DEFER_SEND:
            # deferred sends can block: push the op back until it completes
            chan, value = args
            if not self._try_send(goroutine, chan, value, line=0):
                goroutine.frame.deferred.append((target, args))
            return
        if isinstance(target, ir.FuncRef) and target.name in (DEFER_LOCK, DEFER_RLOCK):
            mutex = args[0]
            if isinstance(mutex, MutexVal):
                if target.name == DEFER_RLOCK:
                    if mutex.can_rlock():
                        mutex.readers += 1
                    else:
                        goroutine.frame.deferred.append((target, args))
                elif mutex.can_lock():
                    mutex.locked_by = goroutine.gid
                else:
                    goroutine.frame.deferred.append((target, args))
            return
        self._push_call(goroutine, target, args, dsts=[])

    # -- instructions ---------------------------------------------------------
    #
    # One handler per instruction type, looked up by exact type in
    # ``_HANDLERS`` (no concrete IR instruction class subclasses another).
    # A handler gets the goroutine, its top frame and the instruction.

    def _exec_make_chan(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeChan) -> None:
        size = int(self.value_of(instr.size, frame.env) or 0)
        if size < 0:
            raise GoPanic("makechan: size out of range")
        self._store(frame.env, instr.dst, Channel(size, instr.elem_type, instr.line))
        self._advance(frame)

    def _exec_make_mutex(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeMutex) -> None:
        self._store(frame.env, instr.dst, MutexVal(rw=instr.rw, create_line=instr.line))
        self._advance(frame)

    def _exec_make_wait_group(
        self, goroutine: Goroutine, frame: Frame, instr: ir.MakeWaitGroup
    ) -> None:
        self._store(frame.env, instr.dst, WaitGroupVal(create_line=instr.line))
        self._advance(frame)

    def _exec_make_cond(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeCond) -> None:
        self._store(frame.env, instr.dst, CondVal(create_line=instr.line))
        self._advance(frame)

    def _exec_cond_wait(self, goroutine: Goroutine, frame: Frame, instr: ir.CondWait) -> None:
        cond = self.value_of(instr.cond, frame.env)
        if goroutine.resume_action is not None and goroutine.resume_action[0] == "cond_done":
            goroutine.resume_action = None
            self._advance(frame)
        else:
            goroutine.park([Offer("condwait", cond)], instr.line, "cond-wait", self.clock)

    def _exec_cond_signal(self, goroutine: Goroutine, frame: Frame, instr: ir.CondSignal) -> None:
        cond = self.value_of(instr.cond, frame.env)
        waiters = self.parked("condwait", cond)
        if waiters:
            targets = waiters if instr.broadcast else waiters[:1]
            for waiter in targets:
                waiter.wake(("cond_done",))
        self._advance(frame)

    def _exec_make_context(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeContext) -> None:
        ctx = ContextVal(Channel(0, "unit", instr.line))
        self._store(frame.env, instr.dst, ctx)
        if instr.cancel_dst is not None:
            self._store(frame.env, instr.cancel_dst, CancelFunc(ctx))
        self._advance(frame)

    def _exec_make_slice(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeSlice) -> None:
        size = int(self.value_of(instr.size, frame.env) or 0)
        if size < 0:
            raise GoPanic("makeslice: len out of range")
        self._store(frame.env, instr.dst, SliceVal([zero_value(instr.elem_type)] * size))
        self._advance(frame)

    def _exec_make_struct(self, goroutine: Goroutine, frame: Frame, instr: ir.MakeStruct) -> None:
        env = frame.env
        fields = {name: self.value_of(op, env) for name, op in instr.fields}
        self._store(env, instr.dst, StructVal(instr.type_name, fields))
        self._advance(frame)

    def _exec_close(self, goroutine: Goroutine, frame: Frame, instr: ir.Close) -> None:
        self._close_channel(self.value_of(instr.chan, frame.env))
        self._advance(frame)

    def _exec_unlock(self, goroutine: Goroutine, frame: Frame, instr: ir.Unlock) -> None:
        self._unlock(self.value_of(instr.mutex, frame.env), read=instr.read)
        self._advance(frame)

    def _exec_wg_add(self, goroutine: Goroutine, frame: Frame, instr: ir.WgAdd) -> None:
        wg = self.value_of(instr.wg, frame.env)
        if isinstance(wg, WaitGroupVal):
            wg.count += int(self.value_of(instr.delta, frame.env) or 0)
        self._advance(frame)

    def _exec_wg_done(self, goroutine: Goroutine, frame: Frame, instr: ir.WgDone) -> None:
        self._wg_done(self.value_of(instr.wg, frame.env))
        self._advance(frame)

    def _exec_defer(self, goroutine: Goroutine, frame: Frame, instr: ir.Defer) -> None:
        env = frame.env
        target = self.value_of(instr.func_op, env)
        if isinstance(instr.func_op, ir.FuncRef) and instr.func_op.name.startswith("$"):
            target = instr.func_op
        args = [self.value_of(a, env) for a in instr.args]
        frame.deferred.append((target, args))
        self._advance(frame)

    def _exec_fatal(self, goroutine: Goroutine, frame: Frame, instr: ir.Fatal) -> None:
        self.test_failed = True
        self._advance(frame)

    def _exec_sleep(self, goroutine: Goroutine, frame: Frame, instr: ir.Sleep) -> None:
        duration = int(self.value_of(instr.duration, frame.env) or 1)
        goroutine.sleep_until = self.clock + max(duration, 1)
        self._advance(frame)

    def _exec_println(self, goroutine: Goroutine, frame: Frame, instr: ir.Println) -> None:
        parts = [str(self.value_of(a, frame.env)) for a in instr.args]
        self.output.append(" ".join(parts))
        self._advance(frame)

    def _exec_bin_op(self, goroutine: Goroutine, frame: Frame, instr: ir.BinOp) -> None:
        self._store(frame.env, instr.dst, self._binop(instr.op, instr, frame.env))
        self._advance(frame)

    def _exec_un_op(self, goroutine: Goroutine, frame: Frame, instr: ir.UnOp) -> None:
        self._store(frame.env, instr.dst, self._unop(instr, frame.env))
        self._advance(frame)

    def _exec_assign(self, goroutine: Goroutine, frame: Frame, instr: ir.Assign) -> None:
        self._store(frame.env, instr.dst, self.value_of(instr.src, frame.env))
        self._advance(frame)

    def _exec_field_get(self, goroutine: Goroutine, frame: Frame, instr: ir.FieldGet) -> None:
        obj = self.value_of(instr.obj, frame.env)
        value = obj.fields.get(instr.field_name) if isinstance(obj, StructVal) else None
        self._store(frame.env, instr.dst, value)
        self._advance(frame)

    def _exec_field_set(self, goroutine: Goroutine, frame: Frame, instr: ir.FieldSet) -> None:
        obj = self.value_of(instr.obj, frame.env)
        if isinstance(obj, StructVal):
            obj.fields[instr.field_name] = self.value_of(instr.value, frame.env)
        self._advance(frame)

    def _exec_index_get(self, goroutine: Goroutine, frame: Frame, instr: ir.IndexGet) -> None:
        env = frame.env
        elems = _elements(self.value_of(instr.seq, env))
        index = int(self.value_of(instr.index, env) or 0)
        value = None if elems is None else elems[_in_range(index, len(elems))]
        self._store(env, instr.dst, value)
        self._advance(frame)

    def _exec_index_set(self, goroutine: Goroutine, frame: Frame, instr: ir.IndexSet) -> None:
        env = frame.env
        seq = self.value_of(instr.seq, env)
        if seq is None or isinstance(seq, SliceVal):
            elems = [] if seq is None else seq.elems  # a nil slice has length 0
            index = int(self.value_of(instr.index, env) or 0)
            elems[_in_range(index, len(elems))] = self.value_of(instr.value, env)
        self._advance(frame)

    def _exec_ctx_done(self, goroutine: Goroutine, frame: Frame, instr: ir.CtxDone) -> None:
        ctx = self.value_of(instr.ctx, frame.env)
        done = ctx.done if isinstance(ctx, ContextVal) else Channel(0, "unit")
        self._store(frame.env, instr.dst, done)
        self._advance(frame)

    def _exec_jump(self, goroutine: Goroutine, frame: Frame, instr: ir.Jump) -> None:
        self._jump(frame, instr.target)

    def _exec_cond_jump(self, goroutine: Goroutine, frame: Frame, instr: ir.CondJump) -> None:
        cond = self.value_of(instr.cond, frame.env)
        self._jump(frame, instr.true_block if cond else instr.false_block)

    def _exec_return(self, goroutine: Goroutine, frame: Frame, instr: ir.Return) -> None:
        env = frame.env
        self._begin_return(goroutine, [self.value_of(v, env) for v in instr.values])

    def _exec_panic(self, goroutine: Goroutine, frame: Frame, instr: ir.Panic) -> None:
        raise GoPanic(self.value_of(instr.message, frame.env))

    # -- arithmetic ------------------------------------------------------------

    def _binop(self, op: str, instr: ir.BinOp, env: Env) -> Any:
        left = self.value_of(instr.left, env)
        right = self.value_of(instr.right, env)
        if op == "+":
            return (left or 0) + (right or 0) if not isinstance(left, str) else left + str(right)
        if op == "-":
            return (left or 0) - (right or 0)
        if op == "*":
            return (left or 0) * (right or 0)
        if op == "/":
            if not right:
                raise GoPanic("integer divide by zero")
            return (left or 0) // right
        if op == "%":
            if not right:
                raise GoPanic("integer divide by zero")
            return (left or 0) % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return (left or 0) < (right or 0)
        if op == "<=":
            return (left or 0) <= (right or 0)
        if op == ">":
            return (left or 0) > (right or 0)
        if op == ">=":
            return (left or 0) >= (right or 0)
        if op == "&&":
            return bool(left) and bool(right)
        if op == "||":
            return bool(left) or bool(right)
        raise GoPanic(f"unknown binary op {op}")

    def _unop(self, instr: ir.UnOp, env: Env) -> Any:
        value = self.value_of(instr.operand, env)
        if instr.op == "!":
            return not value
        if instr.op == "-":
            return -(value or 0)
        if instr.op in ("len", "cap"):
            if isinstance(value, SliceVal):
                return len(value.elems)
            if isinstance(value, Channel):
                return len(value.buffer) if instr.op == "len" else value.capacity
            if isinstance(value, str):
                return len(value.encode())  # a string's length is its UTF-8 bytes
            return 0
        raise GoPanic(f"unknown unary op {instr.op}")

    # -- channel operations -------------------------------------------------

    def _exec_send(self, goroutine: Goroutine, frame: Frame, instr: ir.Send) -> None:
        if goroutine.resume_action is not None and goroutine.resume_action[0] == "send_done":
            goroutine.resume_action = None
            self._advance(frame)
            return
        chan = self.value_of(instr.chan, frame.env)
        value = self.value_of(instr.value, frame.env)
        if not isinstance(chan, Channel):
            # sending to a nil channel blocks the goroutine forever (Go spec)
            goroutine.park([Offer("send", None, value)], instr.line, "send-nil", self.clock)
            return
        if self._try_send(goroutine, chan, value, instr.line):
            self._advance(frame)
        else:
            goroutine.park([Offer("send", chan, value)], instr.line, "send", self.clock)

    def _try_send(self, goroutine: Goroutine, chan: Channel, value: Any, line: int) -> bool:
        if chan.closed:
            raise GoPanic("send on closed channel")
        receivers = self.parked("recv", chan)
        if receivers:
            partner = receivers[0]
            self._complete_recv(partner, chan, value, True)
            return True
        if len(chan.buffer) < chan.capacity:
            chan.buffer.append(value)
            return True
        return False

    def _exec_recv(self, goroutine: Goroutine, frame: Frame, instr: ir.Recv) -> None:
        if goroutine.resume_action is not None and goroutine.resume_action[0] == "recv_done":
            _, _, value, ok = goroutine.resume_action
            goroutine.resume_action = None
            self._store(frame.env, instr.dst, value)
            self._store(frame.env, instr.ok_dst, ok)
            self._advance(frame)
            return
        chan = self.value_of(instr.chan, frame.env)
        if not isinstance(chan, Channel):
            # receive on nil channel blocks forever
            goroutine.park([Offer("recv", None)], instr.line, "recv-nil", self.clock)
            return
        ready, value, ok = self._try_recv(chan)
        if ready:
            self._store(frame.env, instr.dst, value)
            self._store(frame.env, instr.ok_dst, ok)
            self._advance(frame)
        else:
            goroutine.park([Offer("recv", chan)], instr.line, "recv", self.clock)

    def _try_recv(self, chan: Channel) -> Tuple[bool, Any, bool]:
        if chan.buffer:
            value = chan.buffer.popleft()
            # refill the freed slot from a parked sender, if any
            senders = self.parked("send", chan)
            if senders:
                partner = senders[0]
                offer = next(o for o in partner.offers if o.kind == "send" and o.obj is chan)
                chan.buffer.append(offer.value)
                partner.wake(("send_done", chan))
            return True, value, True
        senders = self.parked("send", chan)
        if senders:
            partner = senders[0]
            offer = next(o for o in partner.offers if o.kind == "send" and o.obj is chan)
            partner.wake(("send_done", chan))
            return True, offer.value, True
        if chan.closed:
            return True, zero_value(chan.elem_type), False
        return False, None, False

    def _complete_recv(self, partner: Goroutine, chan: Channel, value: Any, ok: bool) -> None:
        partner.wake(("recv_done", chan, value, ok))

    def _close_channel(self, chan: Any) -> None:
        if not isinstance(chan, Channel):
            raise GoPanic("close of nil channel")
        if chan.closed:
            raise GoPanic("close of closed channel")
        chan.closed = True
        self._wake_all_on(chan)

    # -- select ------------------------------------------------------------

    def _exec_select(self, goroutine: Goroutine, frame: Frame, instr: ir.Select) -> None:
        if goroutine.resume_action is not None:
            action = goroutine.resume_action
            goroutine.resume_action = None
            if action[0] == "recv_done":
                _, chan, value, ok = action
                case = next(
                    c
                    for c in instr.cases
                    if c.kind == "recv" and self.value_of(c.chan, frame.env) is chan
                )
                self._store(frame.env, case.dst, value)
                self._store(frame.env, case.ok_dst, ok)
                self._jump(frame, case.target)
                return
            if action[0] == "send_done":
                chan = action[1]
                case = next(
                    c
                    for c in instr.cases
                    if c.kind == "send" and self.value_of(c.chan, frame.env) is chan
                )
                self._jump(frame, case.target)
                return
        ready = self._ready_cases(instr, frame)
        if ready:
            case = ready[self.policy.pick("select", ready, self)]
            chan = self.value_of(case.chan, frame.env)
            if case.kind == "recv":
                ok_ready, value, ok = self._try_recv(chan)
                if not ok_ready:  # racy wakeups cannot happen (sequential), but be safe
                    goroutine.park(self._select_offers(instr, frame), instr.line, "select", self.clock)
                    return
                self._store(frame.env, case.dst, value)
                self._store(frame.env, case.ok_dst, ok)
            else:
                value = self.value_of(case.value, frame.env) if case.value is not None else None
                if not self._try_send(goroutine, chan, value, instr.line):
                    goroutine.park(self._select_offers(instr, frame), instr.line, "select", self.clock)
                    return
            self._jump(frame, case.target)
            return
        if instr.default_target is not None:
            self._jump(frame, instr.default_target)
            return
        goroutine.park(self._select_offers(instr, frame), instr.line, "select", self.clock)

    def _ready_cases(self, instr: ir.Select, frame: Frame) -> List[ir.SelectCase]:
        ready: List[ir.SelectCase] = []
        for case in instr.cases:
            chan = self.value_of(case.chan, frame.env)
            if not isinstance(chan, Channel):
                continue  # nil channel case: never ready
            if case.kind == "recv":
                if chan.buffer or chan.closed or self.parked("send", chan):
                    ready.append(case)
            else:
                if chan.closed or len(chan.buffer) < chan.capacity or self.parked("recv", chan):
                    ready.append(case)
        return ready

    def select_options(self, goroutine: Goroutine) -> int:
        """How many ready cases the goroutine's next step chooses among.

        0 unless that step reaches a ``select`` choice; the count is the
        ``options`` of the ``select`` choice the step would record.
        """
        frame = goroutine.frame
        if frame.returning:
            return 0
        instr = frame.current_instr()
        if not isinstance(instr, ir.Select):
            return 0
        action = goroutine.resume_action
        if action is not None and action[0] in ("recv_done", "send_done"):
            return 0
        return len(self._ready_cases(instr, frame))

    def _select_offers(self, instr: ir.Select, frame: Frame) -> List[Offer]:
        offers: List[Offer] = []
        for case in instr.cases:
            chan = self.value_of(case.chan, frame.env)
            if not isinstance(chan, Channel):
                continue
            if case.kind == "recv":
                offers.append(Offer("recv", chan))
            else:
                value = self.value_of(case.value, frame.env) if case.value is not None else None
                offers.append(Offer("send", chan, value))
        return offers

    def _exec_range_next(self, goroutine: Goroutine, frame: Frame, instr: ir.RangeNext) -> None:
        if goroutine.resume_action is not None and goroutine.resume_action[0] == "recv_done":
            _, _, value, ok = goroutine.resume_action
            goroutine.resume_action = None
            if ok:
                self._store(frame.env, instr.dst, value)
                self._jump(frame, instr.body)
            else:
                self._jump(frame, instr.done)
            return
        chan = self.value_of(instr.chan, frame.env)
        if not isinstance(chan, Channel):
            goroutine.park([Offer("recv", None)], instr.line, "recv-nil", self.clock)
            return
        ready, value, ok = self._try_recv(chan)
        if not ready:
            goroutine.park([Offer("recv", chan)], instr.line, "range", self.clock)
            return
        if ok:
            self._store(frame.env, instr.dst, value)
            self._jump(frame, instr.body)
        else:
            self._jump(frame, instr.done)

    # -- locks / waitgroups ---------------------------------------------------

    def _exec_lock(self, goroutine: Goroutine, frame: Frame, instr: ir.Lock) -> None:
        mutex = self.value_of(instr.mutex, frame.env)
        if not isinstance(mutex, MutexVal):
            raise GoPanic("lock of non-mutex value")
        if instr.read:
            if mutex.can_rlock():
                mutex.readers += 1
                self._advance(frame)
            else:
                goroutine.park([Offer("rlock", mutex)], instr.line, "rlock", self.clock)
            return
        if mutex.can_lock():
            mutex.locked_by = goroutine.gid
            self._advance(frame)
        else:
            goroutine.park([Offer("lock", mutex)], instr.line, "lock", self.clock)

    def _unlock(self, mutex: Any, read: bool) -> None:
        if not isinstance(mutex, MutexVal):
            raise GoPanic("unlock of non-mutex value")
        if read:
            if mutex.readers <= 0:
                raise GoPanic("RUnlock of unlocked RWMutex")
            mutex.readers -= 1
        else:
            if mutex.locked_by is None:
                raise GoPanic("unlock of unlocked mutex")
            mutex.locked_by = None
        self._wake_all_on(mutex)

    def _wg_done(self, wg: Any) -> None:
        if not isinstance(wg, WaitGroupVal):
            raise GoPanic("Done on non-WaitGroup")
        wg.count -= 1
        if wg.count < 0:
            raise GoPanic("negative WaitGroup counter")
        if wg.count == 0:
            self._wake_all_on(wg)

    def _exec_wg_wait(self, goroutine: Goroutine, frame: Frame, instr: ir.WgWait) -> None:
        wg = self.value_of(instr.wg, frame.env)
        if not isinstance(wg, WaitGroupVal) or wg.count == 0:
            self._advance(frame)
        else:
            goroutine.park([Offer("wg", wg)], instr.line, "wg-wait", self.clock)

    # -- calls / goroutines --------------------------------------------------

    def _exec_go(self, goroutine: Goroutine, frame: Frame, instr: ir.Go) -> None:
        target = self.value_of(instr.func_op, frame.env)
        args = [self.value_of(a, frame.env) for a in instr.args]
        func, env = self._resolve_callable(target, args)
        if func is not None:
            child = self.spawn(func, env)
            child.park_time = self.clock
        self._advance(frame)

    def _exec_call(self, goroutine: Goroutine, frame: Frame, instr: ir.Call) -> None:
        target = self.value_of(instr.func_op, frame.env)
        args = [self.value_of(a, frame.env) for a in instr.args]
        if isinstance(target, CancelFunc):
            if not target.ctx.done.closed:
                target.ctx.done.closed = True
                self._wake_all_on(target.ctx.done)
            self._advance(frame)
            return
        func, env = self._resolve_callable(target, args)
        if func is None:
            # external stub: zero results
            for dst in instr.dsts:
                frame.env.assign(dst.name, 0)
            self._advance(frame)
            return
        new_frame = Frame(func, env, dsts=instr.dsts)
        goroutine.frames.append(new_frame)
        # note: caller PC advances when the callee frame returns

    def _push_call(self, goroutine: Goroutine, target: Any, args: List[Any], dsts: List[ir.Var]) -> None:
        func, env = self._resolve_callable(target, args)
        if func is None:
            return
        goroutine.frames.append(Frame(func, env, dsts=dsts))

    def _resolve_callable(self, target: Any, args: List[Any]) -> Tuple[Optional[ir.Function], Optional[Env]]:
        """Resolve a call target into (function, prepared environment)."""
        if isinstance(target, Closure):
            func = self.program.functions.get(target.func_name)
            if func is None:
                return None, None
            env = Env(parent=target.env)
            self._bind_params(func, env, args)
            return func, env
        if isinstance(target, ir.FuncRef):
            func = self.program.functions.get(target.name)
            if func is None:
                return None, None
            env = Env()
            self._bind_params(func, env, args)
            return func, env
        if isinstance(target, ir.MethodRef):
            # dynamic dispatch on the receiver's struct type
            if args and isinstance(args[0], StructVal):
                qualified = f"{args[0].type_name}.{target.name}"
                func = self.program.functions.get(qualified)
                if func is not None:
                    env = Env()
                    self._bind_params(func, env, args)
                    return func, env
            return None, None
        return None, None

    def _bind_params(self, func: ir.Function, env: Env, args: List[Any]) -> None:
        for i, param in enumerate(func.params):
            env.vars[param] = args[i] if i < len(args) else None


def _elements(seq: Any) -> Optional[Sequence[Any]]:
    """What ``seq[i]`` reads: a slice's elements, a string's UTF-8 bytes and
    nothing for a nil slice; None for a value that has no elements."""
    if isinstance(seq, SliceVal):
        return seq.elems
    if isinstance(seq, str):
        return seq.encode()
    if seq is None:
        return ()
    return None


def _in_range(index: int, length: int) -> int:
    """``index`` if it is in bounds for ``length`` elements; Go's panic otherwise."""
    if index < 0:
        raise GoPanic(f"index out of range [{index}]")
    if index >= length:
        raise GoPanic(f"index out of range [{index}] with length {length}")
    return index


_HANDLERS = {
    ir.MakeChan: Interpreter._exec_make_chan,
    ir.MakeMutex: Interpreter._exec_make_mutex,
    ir.MakeWaitGroup: Interpreter._exec_make_wait_group,
    ir.MakeCond: Interpreter._exec_make_cond,
    ir.CondWait: Interpreter._exec_cond_wait,
    ir.CondSignal: Interpreter._exec_cond_signal,
    ir.MakeContext: Interpreter._exec_make_context,
    ir.MakeSlice: Interpreter._exec_make_slice,
    ir.MakeStruct: Interpreter._exec_make_struct,
    ir.Send: Interpreter._exec_send,
    ir.Recv: Interpreter._exec_recv,
    ir.Close: Interpreter._exec_close,
    ir.Lock: Interpreter._exec_lock,
    ir.Unlock: Interpreter._exec_unlock,
    ir.WgAdd: Interpreter._exec_wg_add,
    ir.WgDone: Interpreter._exec_wg_done,
    ir.WgWait: Interpreter._exec_wg_wait,
    ir.Go: Interpreter._exec_go,
    ir.Call: Interpreter._exec_call,
    ir.Defer: Interpreter._exec_defer,
    ir.Fatal: Interpreter._exec_fatal,
    ir.Sleep: Interpreter._exec_sleep,
    ir.Println: Interpreter._exec_println,
    ir.BinOp: Interpreter._exec_bin_op,
    ir.UnOp: Interpreter._exec_un_op,
    ir.Assign: Interpreter._exec_assign,
    ir.FieldGet: Interpreter._exec_field_get,
    ir.FieldSet: Interpreter._exec_field_set,
    ir.IndexGet: Interpreter._exec_index_get,
    ir.IndexSet: Interpreter._exec_index_set,
    ir.CtxDone: Interpreter._exec_ctx_done,
    ir.Jump: Interpreter._exec_jump,
    ir.CondJump: Interpreter._exec_cond_jump,
    ir.Select: Interpreter._exec_select,
    ir.RangeNext: Interpreter._exec_range_next,
    ir.Return: Interpreter._exec_return,
    ir.Panic: Interpreter._exec_panic,
}
