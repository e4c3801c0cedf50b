"""Interpreter checkpoints: the runtime state between two steps, copied.

The systematic explorer (:mod:`repro.runtime.explorer`) checkpoints a run
just before a branch choice, and every sibling run resumes from that
checkpoint instead of re-executing the choices before it from ``main``.

A checkpoint holds the goroutines with their frames, environments, offers
and resume actions; every value they reach (channels, mutexes, structs,
slices, closures, ...); the output so far; the scheduling loop's step
counts; and the thread's runtime id counters, so a resumed run mints the
ids the original run would have minted next. The copy is hand-written: a
memo keeps one object one object (a channel held in an env var, an offer
and a resume action; an env shared by a frame and a closure), IR nodes are
shared with the live run, and a type the copier does not know raises
``TypeError`` instead of being shared between runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.interp import Frame, Goroutine, Interpreter, Offer
from repro.runtime.values import (
    CancelFunc,
    Channel,
    Closure,
    CondVal,
    ContextVal,
    Env,
    MutexVal,
    SliceVal,
    StructVal,
    WaitGroupVal,
    restore_runtime_ids,
    runtime_ids,
)
from repro.ssa import ir


@dataclass
class Checkpoint:
    """An interpreter's state between two steps, owned by nobody else.

    :meth:`take` copies it out of a live interpreter, :meth:`restore` hands
    it to one, and :meth:`copy` makes another private copy, so one
    checkpoint can seed several runs.
    """

    goroutines: Dict[int, Goroutine]
    next_gid: int
    clock: int
    steps: int
    drain_steps: int
    output: List[str]
    panicked: bool
    panic_message: Optional[str]
    test_failed: bool
    ids: Dict[str, int]  # the thread's runtime id counters

    @classmethod
    def take(cls, interp: Interpreter) -> "Checkpoint":
        return cls(
            goroutines=_copy_goroutines(interp.goroutines),
            next_gid=interp._next_gid,
            clock=interp.clock,
            steps=interp.steps,
            drain_steps=interp.drain_steps,
            output=list(interp.output),
            panicked=interp.panicked,
            panic_message=interp.panic_message,
            test_failed=interp.test_failed,
            ids=runtime_ids(),
        )

    def restore(self, interp: Interpreter) -> None:
        """Make this state ``interp``'s live state, consuming the checkpoint
        (restore a :meth:`copy` to keep it)."""
        interp.goroutines = self.goroutines
        interp._next_gid = self.next_gid
        interp.clock = self.clock
        interp.steps = self.steps
        interp.drain_steps = self.drain_steps
        interp.output = self.output
        interp.panicked = self.panicked
        interp.panic_message = self.panic_message
        interp.test_failed = self.test_failed
        restore_runtime_ids(self.ids)

    def copy(self) -> "Checkpoint":
        return replace(
            self,
            goroutines=_copy_goroutines(self.goroutines),
            output=list(self.output),
            ids=dict(self.ids),
        )


#: copied by reference: immutable scalars and the program's IR nodes
_SHARED = frozenset(
    [int, float, str, bool, type(None)]
    + [cls for cls in vars(ir).values() if isinstance(cls, type) and cls.__module__ == ir.__name__]
)


class _GraphCopier:
    """Copies one runtime object graph; the memo keeps object identity.

    Frames and offers are reachable from exactly one goroutine, so only
    values and environments go through the memo. A type the copier does
    not know raises ``TypeError`` rather than being shared between runs.
    """

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: Dict[int, Any] = {}

    def value(self, obj: Any) -> Any:
        cls = type(obj)
        if cls in _SHARED:
            return obj
        copied = self.memo.get(id(obj))
        if copied is not None:
            return copied
        copier = _VALUE_COPIERS.get(cls)
        if copier is None:
            raise TypeError(f"cannot checkpoint a {cls.__name__} value")
        return copier(self, obj)

    def values(self, objs: Any) -> List[Any]:
        return [obj if type(obj) in _SHARED else self.value(obj) for obj in objs]

    def env(self, env: Env) -> Env:
        copied = self.memo.get(id(env))
        if copied is not None:
            return copied
        new = Env.__new__(Env)
        self.memo[id(env)] = new
        new.shared = env.shared
        new.shared_serial = env.shared_serial
        new.vars = {
            name: v if type(v) in _SHARED else self.value(v) for name, v in env.vars.items()
        }
        new.parent = None if env.parent is None else self.env(env.parent)
        return new

    def goroutine(self, goroutine: Goroutine) -> Goroutine:
        new = Goroutine.__new__(Goroutine)
        new.gid = goroutine.gid
        new.frames = [self.frame(frame) for frame in goroutine.frames]
        new.status = goroutine.status
        new.offers = [Offer(o.kind, self.value(o.obj), self.value(o.value)) for o in goroutine.offers]
        new.resume_action = self.value(goroutine.resume_action)
        new.park_time = goroutine.park_time
        new.sleep_until = goroutine.sleep_until
        new.steps = goroutine.steps
        new.blocked_line = goroutine.blocked_line
        new.blocked_kind = goroutine.blocked_kind
        new.panic_message = goroutine.panic_message
        return new

    def frame(self, frame: Frame) -> Frame:
        new = Frame.__new__(Frame)
        new.func = frame.func
        new.env = self.env(frame.env)
        new.block = frame.block
        new.idx = frame.idx
        new.deferred = [(self.value(target), self.values(args)) for target, args in frame.deferred]
        new.dsts = frame.dsts
        new.returning = frame.returning
        new.ret_values = self.values(frame.ret_values)
        return new


def _copy_goroutines(goroutines: Dict[int, Goroutine]) -> Dict[int, Goroutine]:
    copier = _GraphCopier()
    return {gid: copier.goroutine(g) for gid, g in goroutines.items()}


def _copy_tuple(c: _GraphCopier, obj: tuple) -> tuple:
    new = tuple(c.values(obj))
    c.memo[id(obj)] = new
    return new


def _copy_shallow(c: _GraphCopier, obj: Any) -> Any:
    """A memoized copy sharing ``obj``'s attributes: complete for values whose
    attributes are immutable scalars; the other copiers replace the rest."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    c.memo[id(obj)] = new
    return new


def _copy_channel(c: _GraphCopier, chan: Channel) -> Channel:
    new = _copy_shallow(c, chan)
    new.buffer = deque(c.values(chan.buffer))
    return new


def _copy_context(c: _GraphCopier, ctx: ContextVal) -> ContextVal:
    new = _copy_shallow(c, ctx)
    new.done = c.value(ctx.done)
    return new


def _copy_cancel(c: _GraphCopier, cancel: CancelFunc) -> CancelFunc:
    new = _copy_shallow(c, cancel)
    new.ctx = c.value(cancel.ctx)
    return new


def _copy_struct(c: _GraphCopier, obj: StructVal) -> StructVal:
    new = _copy_shallow(c, obj)
    new.fields = {name: c.value(v) for name, v in obj.fields.items()}
    return new


def _copy_slice(c: _GraphCopier, obj: SliceVal) -> SliceVal:
    new = _copy_shallow(c, obj)
    new.elems = c.values(obj.elems)
    return new


def _copy_closure(c: _GraphCopier, closure: Closure) -> Closure:
    new = _copy_shallow(c, closure)
    new.env = c.env(closure.env)
    return new


_VALUE_COPIERS: Dict[type, Callable[[_GraphCopier, Any], Any]] = {
    tuple: _copy_tuple,
    Channel: _copy_channel,
    MutexVal: _copy_shallow,
    WaitGroupVal: _copy_shallow,
    CondVal: _copy_shallow,
    ContextVal: _copy_context,
    CancelFunc: _copy_cancel,
    StructVal: _copy_struct,
    SliceVal: _copy_slice,
    Closure: _copy_closure,
    Env: _GraphCopier.env,
}
