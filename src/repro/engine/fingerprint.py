"""Content-addressed fingerprints for detection-engine shards.

A primitive's BMOC analysis depends only on its post-disentangle scope:
the SSA of every function reachable in its ``Pset`` scope, the identities
of the primitives analyzed with it, the detector options, and the versions
of the encoder and the decision procedure. Hashing exactly those inputs
gives a key with the invalidation behaviour the engine's cache needs:

* re-running over unchanged source produces the same keys (warm hits);
* editing a function invalidates only the primitives whose scope contains
  it — an unrelated edit is a 100% cache hit;
* bumping :data:`~repro.constraints.encoding.ENCODER_VERSION` or
  :data:`~repro.constraints.solver.SOLVER_VERSION` (or this module's
  :data:`ENGINE_VERSION`) invalidates everything.

Fingerprints are line-sensitive by design: bug reports carry source line
numbers, so an edit that shifts a scope function's lines must re-analyze
the primitives that would otherwise report stale locations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from typing import Dict, Iterable, List, Optional

from repro.analysis.primitives import Primitive
from repro.constraints import encoding, solver
from repro.ssa import ir

#: version tag of the engine itself (shard layout, cache entry shape,
#: path-enumeration semantics such as the dead-select-arm pruning rule)
ENGINE_VERSION = "2"


def _operand(op: object, labels: Dict[int, str]) -> str:
    if op is None:
        return "_"
    if isinstance(op, ir.Const):
        return f"#{op.value!r}"
    if isinstance(op, ir.Var):
        return f"%{op.name}"
    if isinstance(op, ir.FuncRef):
        return f"@{op.name}"
    if isinstance(op, ir.MethodRef):
        return f"@?.{op.name}"
    if isinstance(op, ir.Block):
        return labels.get(id(op), "?b")
    if isinstance(op, list):
        return "[" + ",".join(_operand(v, labels) for v in op) + "]"
    if dataclasses.is_dataclass(op) and not isinstance(op, type):
        inner = ",".join(
            f"{f.name}={_operand(getattr(op, f.name), labels)}"
            for f in dataclasses.fields(op)
        )
        return f"{type(op).__name__}({inner})"
    return repr(op)


def _instr_sig(instr: ir.Instr, labels: Dict[int, str]) -> str:
    parts = [type(instr).__name__]
    for f in dataclasses.fields(instr):
        parts.append(f"{f.name}={_operand(getattr(instr, f.name), labels)}")
    return " ".join(parts)


def function_digest(fn: ir.Function) -> str:
    """Deterministic digest of one lowered function's SSA."""
    blocks = fn.reachable_blocks()
    labels = {id(b): f"b{i}" for i, b in enumerate(blocks)}
    h = hashlib.sha256()
    h.update(
        (
            f"func {fn.name}({','.join(fn.params)})->{fn.result_count}"
            f" line={fn.decl_line} closure={fn.is_closure}"
            f" free={','.join(fn.free_vars)}\n"
        ).encode()
    )
    for block in blocks:
        h.update((labels[id(block)] + ":\n").encode())
        for instr in block.all_instrs():
            h.update((_instr_sig(instr, labels) + "\n").encode())
    return h.hexdigest()


class ProgramDigests:
    """Memoized per-function digests of one program.

    :meth:`of_program` keeps one instance per :class:`~repro.ssa.ir.Program`
    — nothing mutates the IR once it is built — so the service's refresh
    diff and the engine's shard fingerprints share every digest instead of
    each computing all of them. ``computed`` counts the memo misses.
    """

    _per_program: "weakref.WeakKeyDictionary[ir.Program, ProgramDigests]" = (
        weakref.WeakKeyDictionary()
    )
    _per_program_lock = threading.Lock()

    def __init__(self, program: ir.Program):
        # the function table, not the program: the per-program memo is
        # keyed weakly on the program and must not keep it alive
        self.functions = program.functions
        self._digests: Dict[str, str] = {}
        self._lock = threading.Lock()
        self.computed = 0

    @classmethod
    def of_program(cls, program: ir.Program) -> "ProgramDigests":
        with cls._per_program_lock:
            digests = cls._per_program.get(program)
            if digests is None:
                digests = cls._per_program[program] = cls(program)
            return digests

    def inherit(self, previous: "ProgramDigests") -> None:
        """Take over ``previous``'s digest of every function object this
        program shares with it: an earlier generation of the same project
        whose build reused that function. The same object has the same
        SSA, so its digest carries over and is not counted in ``computed``."""
        functions = previous.functions
        with self._lock:
            for name, digest in previous._digests.items():
                if self.functions.get(name) is functions.get(name):
                    self._digests.setdefault(name, digest)

    def of(self, name: str) -> str:
        digest = self._digests.get(name)
        if digest is None:
            digest = function_digest(self.functions[name])
            with self._lock:
                # two threads may miss on one name together; only the first
                # store counts, so ``computed`` stays one per function
                if name not in self._digests:
                    self._digests[name] = digest
                    self.computed += 1
        return digest


def version_preamble() -> List[str]:
    """The detection-semantics version tags folded into every fingerprint:
    the engine's here and the fleet's unit fingerprints (repro.fleet.plan).
    Read dynamically so a (monkey-patched or real) version bump is always
    picked up."""
    return [
        f"engine={ENGINE_VERSION}",
        f"encoder={encoding.ENCODER_VERSION}",
        f"solver={solver.SOLVER_VERSION}",
    ]


def _options_line(
    disentangle: bool, max_loop_unroll: int, prune_infeasible: bool,
    solver_max_nodes: Optional[int],
) -> str:
    return (
        f"opts disentangle={disentangle} unroll={max_loop_unroll} "
        f"prune={prune_infeasible} max_nodes={solver_max_nodes}"
    )


def channel_fingerprint(
    digests: ProgramDigests,
    channel: Primitive,
    pset: Iterable[Primitive],
    scope_functions: Iterable[str],
    *,
    disentangle: bool = True,
    max_loop_unroll: int = 2,
    prune_infeasible: bool = True,
    solver_max_nodes: Optional[int] = None,
) -> str:
    """Fingerprint of one channel's BMOC analysis scope."""
    h = hashlib.sha256()
    for line in version_preamble():
        h.update((line + "\n").encode())
    h.update(
        (
            _options_line(
                disentangle, max_loop_unroll, prune_infeasible, solver_max_nodes
            )
            + "\n"
        ).encode()
    )
    h.update((f"channel {channel.site!r}\n").encode())
    for site in sorted(repr(p.site) for p in pset):
        h.update((f"pset {site}\n").encode())
    functions = digests.functions
    for name in sorted(name for name in set(scope_functions) if name in functions):
        h.update((f"fn {name} {digests.of(name)}\n").encode())
    return h.hexdigest()


def traditional_fingerprint(digests: ProgramDigests, checker: str) -> str:
    """Fingerprint of one whole-program traditional checker run.

    Traditional checkers consume the whole program (plus the alias
    analysis), so any function edit invalidates them — their scope *is*
    the program.
    """
    h = hashlib.sha256()
    for line in version_preamble():
        h.update((line + "\n").encode())
    h.update((f"checker {checker}\n").encode())
    for name in sorted(digests.functions):
        h.update((f"fn {name} {digests.of(name)}\n").encode())
    return h.hexdigest()
