"""Dominator trees (Cooper–Harvey–Kennedy algorithm).

GFix's Strategy II places a deferred operation only when every ``return``
of the creating function is *dominated* by the static ``o1`` operation
(paper §4.3); forward dominance is the only direction it needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ssa import ir
from repro.ssa.cfg import predecessor_map, reverse_postorder


class DominatorTree:
    """Immediate-dominator map over a function's reachable blocks."""

    def __init__(self, idom: Dict[int, Optional[int]], order: List[ir.Block]):
        self._idom = idom
        self._blocks = {block.id: block for block in order}

    def idom(self, block: ir.Block) -> Optional[ir.Block]:
        parent = self._idom.get(block.id)
        return self._blocks.get(parent) if parent is not None else None

    def dominates(self, a: ir.Block, b: ir.Block) -> bool:
        """True when every path to ``b`` passes through ``a`` (reflexive)."""
        current: Optional[int] = b.id
        while current is not None:
            if current == a.id:
                return True
            parent = self._idom.get(current)
            if parent == current:
                return False
            current = parent
        return False


def _compute_idoms(
    order: List[ir.Block],
    entry: ir.Block,
    preds: Dict[int, List[ir.Block]],
) -> Dict[int, Optional[int]]:
    index = {block.id: i for i, block in enumerate(order)}
    idom: Dict[int, Optional[int]] = {block.id: None for block in order}
    idom[entry.id] = entry.id

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block.id == entry.id:
                continue
            candidates = [p for p in preds.get(block.id, []) if idom.get(p.id) is not None]
            if not candidates:
                continue
            new_idom = candidates[0].id
            for pred in candidates[1:]:
                new_idom = intersect(new_idom, pred.id)
            if idom[block.id] != new_idom:
                idom[block.id] = new_idom
                changed = True
    return idom


def dominator_tree(func: ir.Function) -> DominatorTree:
    order = reverse_postorder(func)
    if not order:
        return DominatorTree({}, [])
    preds = predecessor_map(func)
    idom = _compute_idoms(order, order[0], preds)
    return DominatorTree(idom, order)
