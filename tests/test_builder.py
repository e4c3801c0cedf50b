"""Unit tests for AST -> IR lowering."""

import pytest

from repro.ssa import ir
from repro.ssa.builder import BuildError, build_program
from tests.conftest import build


def instrs_of(program, name):
    return list(program.functions[name].instructions())


def find(program, name, kind):
    return [i for i in instrs_of(program, name) if isinstance(i, kind)]


class TestChannelLowering:
    def test_make_chan_named(self):
        prog = build("func f() {\n\tch := make(chan int)\n\tch <- 1\n}")
        makes = find(prog, "f", ir.MakeChan)
        assert len(makes) == 1
        assert makes[0].dst.name.startswith("ch")

    def test_buffered_size_constant(self):
        prog = build("func f() {\n\tch := make(chan int, 3)\n\tch <- 1\n}")
        assert find(prog, "f", ir.MakeChan)[0].size == ir.Const(3)

    def test_send_recv_close(self):
        prog = build(
            "func f() {\n\tch := make(chan int)\n\tch <- 1\n\tv := <-ch\n\tclose(ch)\n\tprintln(v)\n}"
        )
        assert len(find(prog, "f", ir.Send)) == 1
        assert len(find(prog, "f", ir.Recv)) == 1
        assert len(find(prog, "f", ir.Close)) == 1

    def test_recv_with_ok(self):
        prog = build("func f(ch chan int) {\n\tv, ok := <-ch\n\tprintln(v, ok)\n}")
        recv = find(prog, "f", ir.Recv)[0]
        assert recv.dst is not None
        assert recv.ok_dst is not None

    def test_select_terminator(self):
        prog = build(
            "func f(a chan int, b chan int) {\n"
            "\tselect {\n\tcase <-a:\n\tcase b <- 1:\n\tdefault:\n\t}\n}"
        )
        selects = find(prog, "f", ir.Select)
        assert len(selects) == 1
        select = selects[0]
        assert len(select.cases) == 2
        assert select.default_target is not None
        assert select.cases[0].kind == "recv"
        assert select.cases[1].kind == "send"

    def test_range_over_channel(self):
        prog = build("func f(ch chan int) {\n\tfor v := range ch {\n\t\tprintln(v)\n\t}\n}")
        assert len(find(prog, "f", ir.RangeNext)) == 1

    def test_range_over_int_is_counted_loop(self):
        prog = build("func f(n int) {\n\tfor i := range n {\n\t\tprintln(i)\n\t}\n}")
        assert not find(prog, "f", ir.RangeNext)
        assert find(prog, "f", ir.CondJump)


class TestSyncLowering:
    def test_mutex_methods(self):
        prog = build(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}"
        )
        assert len(find(prog, "f", ir.MakeMutex)) == 1
        assert len(find(prog, "f", ir.Lock)) == 1
        assert len(find(prog, "f", ir.Unlock)) == 1

    def test_rwmutex_read_ops(self):
        prog = build(
            "func f() {\n\tvar mu sync.RWMutex\n\tmu.RLock()\n\tmu.RUnlock()\n}"
        )
        assert find(prog, "f", ir.Lock)[0].read
        assert find(prog, "f", ir.Unlock)[0].read

    def test_waitgroup_methods(self):
        prog = build(
            "func f() {\n\tvar wg sync.WaitGroup\n\twg.Add(2)\n\twg.Done()\n\twg.Wait()\n}"
        )
        assert find(prog, "f", ir.WgAdd)[0].delta == ir.Const(2)
        assert len(find(prog, "f", ir.WgDone)) == 1
        assert len(find(prog, "f", ir.WgWait)) == 1

    def test_testing_fatal(self):
        prog = build('func TestX(t *testing.T) {\n\tt.Fatalf("boom")\n}')
        fatals = find(prog, "TestX", ir.Fatal)
        assert len(fatals) == 1
        assert fatals[0].method == "Fatalf"

    def test_context_done(self):
        prog = build("func f(ctx context.Context) {\n\t<-ctx.Done()\n}")
        assert len(find(prog, "f", ir.CtxDone)) == 1

    def test_context_with_cancel(self):
        prog = build("func f() {\n\tctx, cancel := context.WithCancel()\n\tcancel()\n\t<-ctx.Done()\n}")
        makes = find(prog, "f", ir.MakeContext)
        assert len(makes) == 1
        assert makes[0].cancel_dst is not None

    def test_time_sleep(self):
        prog = build("func f() {\n\ttime.Sleep(5)\n}")
        assert len(find(prog, "f", ir.Sleep)) == 1


class TestClosures:
    def test_func_literal_becomes_function(self):
        prog = build("func f() {\n\tgo func() {\n\t\tprintln(1)\n\t}()\n}")
        assert "f$lit1" in prog.functions
        assert prog.functions["f$lit1"].is_closure

    def test_free_variables_recorded(self):
        prog = build(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n\t<-ch\n}"
        )
        lit = prog.functions["f$lit1"]
        assert any(name.startswith("ch") for name in lit.free_vars)

    def test_locals_not_free(self):
        prog = build("func f() {\n\tgo func() {\n\t\tx := 1\n\t\tprintln(x)\n\t}()\n}")
        assert prog.functions["f$lit1"].free_vars == []

    def test_nested_closures(self):
        prog = build(
            "func f() {\n\tx := 1\n\tgo func() {\n\t\tgo func() {\n\t\t\tprintln(x)\n\t\t}()\n\t}()\n}"
        )
        inner = prog.functions["f$lit1$lit1"]
        assert any(name.startswith("x") for name in inner.free_vars)


class TestScoping:
    def test_shadowing_gets_unique_names(self):
        prog = build(
            "func f() {\n\tx := 1\n\tif x > 0 {\n\t\tx := 2\n\t\tprintln(x)\n\t}\n\tprintln(x)\n}"
        )
        assigns = find(prog, "f", ir.Assign)
        names = {a.dst.name for a in assigns}
        assert len([n for n in names if n.startswith("x")]) == 2

    def test_blank_identifier_discarded(self):
        prog = build("func f(ch chan int) {\n\t_ = <-ch\n}")
        recv = find(prog, "f", ir.Recv)[0]
        # value lands in a temp, not a named register
        assert recv.dst is None or recv.dst.name.startswith("t")

    def test_struct_mutex_field_materialized(self):
        prog = build(
            "type s struct {\n\tmu sync.Mutex\n}\n"
            "func f() {\n\tv := s{}\n\tv.mu.Lock()\n}"
        )
        assert find(prog, "f", ir.MakeMutex)

    def test_undefined_name_errors(self):
        with pytest.raises(BuildError):
            build("func f() {\n\tprintln(mystery)\n}")


class TestDefer:
    def test_defer_close_pseudo(self):
        prog = build("func f(ch chan int) {\n\tdefer close(ch)\n}")
        defers = find(prog, "f", ir.Defer)
        assert defers[0].func_op == ir.FuncRef("$close")

    def test_defer_unlock_pseudo(self):
        prog = build("func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tdefer mu.Unlock()\n}")
        defers = find(prog, "f", ir.Defer)
        assert defers[0].func_op == ir.FuncRef("$unlock")

    def test_defer_closure(self):
        prog = build("func f(ch chan int) {\n\tdefer func() {\n\t\tch <- 1\n\t}()\n}")
        defers = find(prog, "f", ir.Defer)
        assert defers[0].func_op == ir.FuncRef("f$lit1")


class TestBranchInfo:
    def test_simple_comparison_extracted(self):
        prog = build("func f(x int) {\n\tif x > 3 {\n\t\tprintln(x)\n\t}\n}")
        jumps = find(prog, "f", ir.CondJump)
        info = jumps[0].branch_info
        assert info is not None
        assert info.op == ">"
        assert info.const == 3

    def test_reversed_comparison_normalized(self):
        prog = build("func f(x int) {\n\tif 3 < x {\n\t\tprintln(x)\n\t}\n}")
        info = find(prog, "f", ir.CondJump)[0].branch_info
        assert info.op == ">"
        assert info.const == 3

    def test_bool_var_condition(self):
        prog = build("func f(ok bool) {\n\tif ok {\n\t\tprintln(1)\n\t}\n}")
        info = find(prog, "f", ir.CondJump)[0].branch_info
        assert info.const is True

    def test_negated_bool_condition(self):
        prog = build("func f(ok bool) {\n\tif !ok {\n\t\tprintln(1)\n\t}\n}")
        info = find(prog, "f", ir.CondJump)[0].branch_info
        assert info.const is False

    def test_complex_condition_has_no_info(self):
        prog = build("func f(x int, y int) {\n\tif x > y {\n\t\tprintln(1)\n\t}\n}")
        assert find(prog, "f", ir.CondJump)[0].branch_info is None


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(BuildError):
            build("func f() {\n\ta, b := 1, 2, 3\n}")

    def test_break_outside_loop(self):
        with pytest.raises(BuildError):
            build("func f() {\n\tbreak\n}")

    def test_continue_outside_loop(self):
        with pytest.raises(BuildError):
            build("func f() {\n\tcontinue\n}")

    @pytest.mark.parametrize("decl", ['m := "ab"', "var m string"])
    def test_string_byte_assignment(self, decl):
        # Go strings are immutable: go build rejects ``m[0] = ...``
        with pytest.raises(BuildError, match="line 4: .*strings are immutable"):
            build("func f() {\n\t" + decl + "\n\tm[0] = 1\n}")

    @pytest.mark.parametrize(
        "decls,what",
        [
            ("func f() {\n}\n\nfunc f() {\n}", "func f"),
            ("type S struct {\n}\n\nfunc (s *S) m() {\n}\n\nfunc (s *S) m() {\n}",
             "func S.m"),
            ("type S struct {\n\tn int\n}\n\ntype S struct {\n}", "type S"),
        ],
        ids=["func", "method", "struct"],
    )
    def test_a_declaration_repeated_in_one_file(self, decls, what):
        # build() puts "package main" on line 1, so the file opens at line 2
        with pytest.raises(BuildError, match=f"^{what} redeclared at test.go:"):
            build(decls)

    def test_a_declaration_repeated_across_files_names_both(self):
        from repro.ssa.builder import lower_files, parse_source_file

        files = [
            parse_source_file("package main\n\nfunc f() {\n}\n", "a.go"),
            parse_source_file("package main\n\nfunc main() {\n}\n\nfunc f() {\n}\n", "b.go"),
        ]
        with pytest.raises(BuildError) as excinfo:
            lower_files(files)
        assert str(excinfo.value) == "func f redeclared at b.go:6 (previous declaration at a.go:3)"


class TestProgramStructure:
    def test_kinds_map_populated(self):
        prog = build("func f() {\n\tch := make(chan int)\n\tch <- 1\n}")
        chan_kinds = [k for k in prog.kinds.values() if k == "chan"]
        assert chan_kinds

    def test_every_block_terminated(self):
        prog = build(
            "func f(x int) int {\n\tif x > 0 {\n\t\treturn 1\n\t}\n\treturn 0\n}"
        )
        for func in prog:
            for block in func.reachable_blocks():
                assert block.terminator is not None

    def test_implicit_return_added(self):
        prog = build("func f() {\n\tprintln(1)\n}")
        terminators = [b.terminator for b in prog.functions["f"].reachable_blocks()]
        assert any(isinstance(t, ir.Return) for t in terminators)
