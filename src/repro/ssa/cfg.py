"""Control-flow-graph queries over lowered functions.

These are the graph views the analyses need: predecessor maps, reverse
postorder, back-edge (loop) discovery, and reachability between
instructions — the same queries GCatch issues against ``go/ssa`` CFGs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ssa import ir


def predecessor_map(func: ir.Function) -> Dict[int, List[ir.Block]]:
    """Map block id -> predecessor blocks (reachable subgraph only)."""
    preds: Dict[int, List[ir.Block]] = {block.id: [] for block in func.reachable_blocks()}
    for block in func.reachable_blocks():
        for succ in block.successors():
            preds.setdefault(succ.id, []).append(block)
    return preds


def reverse_postorder(func: ir.Function) -> List[ir.Block]:
    """Blocks in reverse postorder from entry — the canonical analysis order."""
    if func.entry is None:
        return []
    visited: Set[int] = set()
    order: List[ir.Block] = []

    def visit(block: ir.Block) -> None:
        visited.add(block.id)
        for succ in block.successors():
            if succ.id not in visited:
                visit(succ)
        order.append(block)

    visit(func.entry)
    order.reverse()
    return order


def back_edges(func: ir.Function) -> List[Tuple[ir.Block, ir.Block]]:
    """(source, header) pairs of natural-loop back edges, found by DFS."""
    if func.entry is None:
        return []
    edges: List[Tuple[ir.Block, ir.Block]] = []
    color: Dict[int, int] = {}  # 0 unvisited/absent, 1 on stack, 2 done
    stack: List[Tuple[ir.Block, int]] = [(func.entry, 0)]
    color[func.entry.id] = 1
    while stack:
        block, idx = stack[-1]
        succs = block.successors()
        if idx < len(succs):
            stack[-1] = (block, idx + 1)
            succ = succs[idx]
            state = color.get(succ.id, 0)
            if state == 1:
                edges.append((block, succ))
            elif state == 0:
                color[succ.id] = 1
                stack.append((succ, 0))
        else:
            color[block.id] = 2
            stack.pop()
    return edges


def loop_headers(func: ir.Function) -> Set[int]:
    return {header.id for _, header in back_edges(func)}


def instruction_block(func: ir.Function, instr: ir.Instr) -> Optional[ir.Block]:
    for block in func.reachable_blocks():
        for candidate in block.all_instrs():
            if candidate is instr:
                return block
    return None


def block_reaches(src: ir.Block, dst: ir.Block) -> bool:
    """True when ``dst`` is reachable from ``src`` (inclusive)."""
    seen: Set[int] = set()
    stack = [src]
    while stack:
        block = stack.pop()
        if block.id == dst.id:
            return True
        if block.id in seen:
            continue
        seen.add(block.id)
        stack.extend(block.successors())
    return False


class ReachIndex:
    """Instruction-level reachability over one function's CFG, indexed.

    Built once per function and queried many times: instruction (by
    identity) → (block, position), the first occurrence in reachable-block
    order as :func:`instruction_block` finds it, and block → the blocks
    reachable through its successors (the block itself only on a cycle),
    each derived on first use.
    """

    def __init__(self, func: ir.Function):
        self._position: Dict[int, Tuple[ir.Block, int]] = {}
        for block in func.reachable_blocks():
            for index, instr in enumerate(block.all_instrs()):
                self._position.setdefault(id(instr), (block, index))
        self._successor_reach: Dict[int, Set[int]] = {}

    def successor_reach(self, block: ir.Block) -> Set[int]:
        """Ids of the blocks reachable through ``block``'s successors."""
        reach = self._successor_reach.get(block.id)
        if reach is None:
            reach = set()
            stack = list(block.successors())
            while stack:
                current = stack.pop()
                if current.id not in reach:
                    reach.add(current.id)
                    stack.extend(current.successors())
            self._successor_reach[block.id] = reach
        return reach

    def reaches(self, first: ir.Instr, second: ir.Instr) -> bool:
        """True when ``second`` can execute after ``first`` on some path."""
        first_at = self._position.get(id(first))
        second_at = self._position.get(id(second))
        if first_at is None or second_at is None:
            return False
        (first_block, first_idx), (second_block, second_idx) = first_at, second_at
        if first_block.id == second_block.id and first_idx < second_idx:
            return True
        # otherwise through the successors: back into the same block (for an
        # earlier or the same position) only around a loop
        return second_block.id in self.successor_reach(first_block)


def instr_reaches(func: ir.Function, first: ir.Instr, second: ir.Instr) -> bool:
    """True when ``second`` can execute after ``first`` on some path.

    One-off query; callers asking many questions of one function keep a
    :class:`ReachIndex` instead.
    """
    return ReachIndex(func).reaches(first, second)


def exit_blocks(func: ir.Function) -> List[ir.Block]:
    """Blocks terminated by Return or Panic."""
    return [
        block
        for block in func.reachable_blocks()
        if isinstance(block.terminator, (ir.Return, ir.Panic))
    ]
