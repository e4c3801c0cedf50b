"""Constraint variables of the BMOC constraint system (paper §3.4).

The novelty of GCatch's constraint system is that it models the *state* of
synchronization primitives:

* ``O`` variables — one per operation occurrence, its execution order;
* ``P`` variables — one per (send, recv) pair on the same channel from
  different goroutines; P=1 means the two operations match (rendezvous)
  and execute at the same order index;
* ``BS`` constants — a channel's buffer size;
* ``CB`` variables — the number of elements in the channel just before an
  occurrence executes;
* ``CLOSED`` variables — whether a closing operation happened earlier.

Only ``O`` and ``BS`` exist as printable objects here. The solver in
:mod:`repro.constraints.solver` decides the formulas the paper hands to Z3
by searching interleavings: ``P``, ``CB`` and ``CLOSED`` are the matched
pairs, buffer counts and closed flags of its search states, not objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class OrderVar:
    """O_i: execution order of occurrence ``occ_id``."""

    occ_id: int
    line: int = 0

    def __str__(self) -> str:
        return f"O{self.occ_id}" + (f"(l{self.line})" if self.line else "")


@dataclass(frozen=True)
class BufferSizeConst:
    """BS: the (static) buffer size of a channel primitive."""

    prim_label: str
    value: Optional[int]

    def __str__(self) -> str:
        value = "?" if self.value is None else self.value
        return f"BS[{self.prim_label}]={value}"
