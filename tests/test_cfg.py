"""Tests for CFG utilities and dominator trees."""

from repro.ssa import cfg, ir
from repro.ssa.dominators import dominator_tree
from tests.conftest import build

DIAMOND = (
    "func f(x int) int {\n"
    "\tif x > 0 {\n"
    "\t\tprintln(1)\n"
    "\t} else {\n"
    "\t\tprintln(2)\n"
    "\t}\n"
    "\treturn x\n"
    "}"
)

LOOP = "func f(n int) {\n\tfor i := 0; i < n; i++ {\n\t\tprintln(i)\n\t}\n}"


class TestCfgQueries:
    def test_predecessors_of_join(self):
        prog = build(DIAMOND)
        func = prog.functions["f"]
        preds = cfg.predecessor_map(func)
        # some block (the join) has two predecessors
        assert any(len(p) == 2 for p in preds.values())

    def test_reverse_postorder_starts_at_entry(self):
        prog = build(DIAMOND)
        func = prog.functions["f"]
        order = cfg.reverse_postorder(func)
        assert order[0] is func.entry

    def test_reverse_postorder_covers_reachable(self):
        prog = build(LOOP)
        func = prog.functions["f"]
        assert len(cfg.reverse_postorder(func)) == len(func.reachable_blocks())

    def test_back_edges_in_loop(self):
        prog = build(LOOP)
        assert cfg.back_edges(prog.functions["f"])

    def test_no_back_edges_in_straight_line(self):
        prog = build("func f() {\n\tprintln(1)\n}")
        assert cfg.back_edges(prog.functions["f"]) == []

    def test_loop_headers_found(self):
        prog = build(LOOP)
        assert cfg.loop_headers(prog.functions["f"])

    def test_block_reaches_is_reflexive(self):
        prog = build(DIAMOND)
        entry = prog.functions["f"].entry
        assert cfg.block_reaches(entry, entry)

    def test_instr_reaches_program_order(self):
        prog = build("func f(ch chan int) {\n\tch <- 1\n\tch <- 2\n}")
        func = prog.functions["f"]
        sends = [i for i in func.instructions() if isinstance(i, ir.Send)]
        assert cfg.instr_reaches(func, sends[0], sends[1])
        assert not cfg.instr_reaches(func, sends[1], sends[0])

    def test_instr_reaches_through_loop(self):
        prog = build("func f(ch chan int) {\n\tfor {\n\t\tch <- 1\n\t}\n}")
        func = prog.functions["f"]
        send = [i for i in func.instructions() if isinstance(i, ir.Send)][0]
        assert cfg.instr_reaches(func, send, send)

    def test_exit_blocks(self):
        prog = build(DIAMOND)
        exits = cfg.exit_blocks(prog.functions["f"])
        assert len(exits) == 1
        assert isinstance(exits[0].terminator, ir.Return)


class TestDominators:
    def test_entry_dominates_all(self):
        prog = build(DIAMOND)
        func = prog.functions["f"]
        tree = dominator_tree(func)
        for block in func.reachable_blocks():
            assert tree.dominates(func.entry, block)

    def test_branch_arms_do_not_dominate_join(self):
        prog = build(DIAMOND)
        func = prog.functions["f"]
        tree = dominator_tree(func)
        join = [b for b, p in cfg.predecessor_map(func).items() if len(p) == 2]
        join_block = next(b for b in func.reachable_blocks() if b.id == join[0])
        arms = cfg.predecessor_map(func)[join_block.id]
        for arm in arms:
            assert not tree.dominates(arm, join_block)

    def test_dominance_is_reflexive(self):
        prog = build(LOOP)
        func = prog.functions["f"]
        tree = dominator_tree(func)
        for block in func.reachable_blocks():
            assert tree.dominates(block, block)

    def test_loop_header_dominates_body(self):
        prog = build(LOOP)
        func = prog.functions["f"]
        tree = dominator_tree(func)
        for src, header in cfg.back_edges(func):
            assert tree.dominates(header, src)
