"""Runtime value representations for the MiniGo interpreter.

Channel, mutex and waitgroup values implement exactly the Go semantics the
paper's constraint system models statically (§2.1/§3.4): buffered/unbuffered
channels with FIFO buffers and a closed flag, and mutexes as ownership
flags. The interpreter owns the operations on them: close semantics with
zero values and the rendezvous between parked senders and receivers.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional


class _RuntimeIds(threading.local):
    """Per-thread serial counters for sync objects and env frames.

    Thread-local on purpose: a daemon fleet runs whole campaigns
    concurrently in one process (thread-mode daemons), and a shared
    counter would let one run's allocations perturb another's object
    ids — and through them the explorer's footprint pruning — making
    ``total_steps`` depend on co-scheduled work. Each interpreter run
    resets only its own thread's counters, so concurrent runs mint the
    same ids they would alone.
    """

    def __init__(self):
        self.counts: Dict[str, int] = {}


_IDS = _RuntimeIds()


def _next_id(kind: str) -> int:
    n = _IDS.counts.get(kind, 0) + 1
    _IDS.counts[kind] = n
    return n


def reset_runtime_ids() -> None:
    """Restart the per-run serial counters for sync objects and env frames.

    Called at the top of every ``run_program``: two executions that make the
    same scheduling choices then mint identical ids, so the explorer can
    compare footprints recorded in one run against objects seen in a sibling
    run that shares its choice prefix.
    """
    _IDS.counts.clear()


def runtime_ids() -> Dict[str, int]:
    """A copy of this thread's serial counters (see :func:`restore_runtime_ids`)."""
    return dict(_IDS.counts)


def restore_runtime_ids(counts: Dict[str, int]) -> None:
    """Continue minting ids from ``counts``: a resumed checkpoint then mints
    exactly the ids the run that took it would have minted next."""
    _IDS.counts = dict(counts)


class GoPanic(Exception):
    """Raised inside the interpreter when a goroutine panics."""

    def __init__(self, message: Any):
        super().__init__(str(message))
        self.message = message


def zero_value(elem_type: str) -> Any:
    if elem_type == "int":
        return 0
    if elem_type == "bool":
        return False
    if elem_type == "string":
        return ""
    if elem_type == "unit":
        return ()
    return None


class Channel:
    """A Go channel: a bounded FIFO buffer and a closed flag.

    The operations live in the interpreter (``Interpreter._try_send``/
    ``_try_recv``/``_close_channel``), which pairs senders and receivers
    through the offers of parked goroutines.
    """

    def __init__(self, capacity: int, elem_type: str = "any", create_line: int = 0):
        self.id = _next_id("chan")
        self.capacity = capacity
        self.elem_type = elem_type
        self.create_line = create_line
        self.buffer: Deque[Any] = deque()
        self.closed = False

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self.buffer)}/{self.capacity}"
        return f"<chan#{self.id} {state}>"


class MutexVal:

    def __init__(self, rw: bool = False, create_line: int = 0):
        self.id = _next_id("mutex")
        self.rw = rw
        self.create_line = create_line
        self.locked_by: Optional[int] = None
        self.readers: int = 0

    def can_lock(self) -> bool:
        return self.locked_by is None and self.readers == 0

    def can_rlock(self) -> bool:
        return self.locked_by is None

    def __repr__(self) -> str:
        return f"<mutex#{self.id} locked_by={self.locked_by} readers={self.readers}>"


class WaitGroupVal:

    def __init__(self, create_line: int = 0):
        self.id = _next_id("wg")
        self.create_line = create_line
        self.count = 0

    def __repr__(self) -> str:
        return f"<wg#{self.id} count={self.count}>"


class CondVal:
    """A condition variable: parked waiter set, woken by Signal/Broadcast.

    MiniGo's Cond has no associated Locker (callers manage their own
    mutexes); Wait parks until a Signal/Broadcast arrives — signals are
    not buffered, exactly like Go's sync.Cond.
    """

    def __init__(self, create_line: int = 0):
        self.id = _next_id("cond")
        self.create_line = create_line

    def __repr__(self) -> str:
        return f"<cond#{self.id}>"


class ContextVal:
    """A context whose Done() channel is closed by its cancel function."""

    def __init__(self, done: Channel):
        self.done = done

    def __repr__(self) -> str:
        return f"<context done={self.done!r}>"


class CancelFunc:
    def __init__(self, ctx: ContextVal):
        self.ctx = ctx


class StructVal:

    def __init__(self, type_name: str, fields: Optional[Dict[str, Any]] = None):
        self.id = _next_id("struct")
        self.type_name = type_name
        self.fields: Dict[str, Any] = dict(fields or {})

    def __repr__(self) -> str:
        return f"<{self.type_name} {self.fields}>"


class SliceVal:

    def __init__(self, elems: List[Any]):
        self.id = _next_id("slice")
        self.elems = elems

    def __repr__(self) -> str:
        return f"<slice len={len(self.elems)}>"


class Closure:
    """A function value paired with its defining environment."""

    def __init__(self, func_name: str, env: "Env"):
        self.func_name = func_name
        self.env = env

    def __repr__(self) -> str:
        return f"<closure {self.func_name}>"


class Env:
    """A lexical environment frame; closures chain to their parent.

    ``shared`` marks frames that a closure has captured: variables living in
    a shared frame are potentially visible to other goroutines, which the
    systematic explorer uses to decide whether two steps commute.
    """

    __slots__ = ("vars", "parent", "shared", "shared_serial")

    def __init__(self, parent: Optional["Env"] = None):
        self.vars: Dict[str, Any] = {}
        self.parent = parent
        self.shared = False
        self.shared_serial = 0

    def mark_shared(self) -> None:
        env: Optional[Env] = self
        while env is not None and not env.shared:
            env.shared = True
            env.shared_serial = _next_id("env")
            env = env.parent

    def owner_of(self, name: str) -> Optional["Env"]:
        """The frame in the chain that holds ``name``, or None."""
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env
            env = env.parent
        return None

    def lookup(self, name: str) -> Any:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise KeyError(name)

    def assign(self, name: str, value: Any) -> None:
        """Write through to the defining frame, creating locally if new."""
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        self.vars[name] = value
