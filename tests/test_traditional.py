"""Tests for the five traditional checkers (§3.5)."""

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.detector.traditional.double_lock import check_double_lock
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import check_forget_unlock
from repro.detector.traditional.lock_order import check_lock_order
from repro.detector.traditional.struct_race import check_struct_races
from tests.conftest import build


def prepared(source: str):
    prog = build(source)
    cg = build_call_graph(prog)
    alias = run_alias_analysis(prog, cg)
    return prog, cg, alias


class TestForgetUnlock:
    def test_early_return_holding(self):
        prog, cg, alias = prepared(
            "func f(d bool) {\n\tvar mu sync.Mutex\n\tmu.Lock()\n"
            "\tif d {\n\t\treturn\n\t}\n\tmu.Unlock()\n}"
        )
        reports = check_forget_unlock(prog, alias)
        assert len(reports) == 1
        assert reports[0].category == "forget-unlock"

    def test_balanced_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}"
        )
        assert check_forget_unlock(prog, alias) == []

    def test_defer_unlock_clean(self):
        prog, cg, alias = prepared(
            "func f(d bool) {\n\tvar mu sync.Mutex\n\tmu.Lock()\n"
            "\tdefer mu.Unlock()\n\tif d {\n\t\treturn\n\t}\n}"
        )
        assert check_forget_unlock(prog, alias) == []

    def test_wrapper_lock_is_false_positive(self):
        # semantic FP: begin() locks, end() unlocks — intra-procedural
        # analysis cannot see the pairing (paper: 18 semantic FPs)
        prog, cg, alias = prepared(
            "type s struct {\n\tmu sync.Mutex\n}\n"
            "func (x *s) begin() {\n\tx.mu.Lock()\n}\n"
            "func (x *s) end() {\n\tx.mu.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.begin()\n\tv.end()\n}"
        )
        assert len(check_forget_unlock(prog, alias)) == 1


class TestDoubleLock:
    def test_intraprocedural(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Lock()\n}"
        )
        assert len(check_double_lock(prog, alias)) == 1

    def test_interprocedural_via_summary(self):
        prog, cg, alias = prepared(
            "type r struct {\n\tmu sync.Mutex\n\tn int\n}\n"
            "func (x *r) inner() {\n\tx.mu.Lock()\n\tx.mu.Unlock()\n}\n"
            "func (x *r) outer() {\n\tx.mu.Lock()\n\tx.inner()\n\tx.mu.Unlock()\n}\n"
            "func f() {\n\tv := r{}\n\tv.outer()\n}"
        )
        reports = check_double_lock(prog, alias)
        assert len(reports) == 1
        assert "inner" in reports[0].description

    def test_lock_unlock_lock_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n\tmu.Lock()\n\tmu.Unlock()\n}"
        )
        assert check_double_lock(prog, alias) == []

    def test_two_different_mutexes_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar a sync.Mutex\n\tvar b sync.Mutex\n"
            "\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}"
        )
        assert check_double_lock(prog, alias) == []


class TestLockOrder:
    def test_conflicting_orders(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) ab() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func (x *s) ba() {\n\tx.b.Lock()\n\tx.a.Lock()\n\tx.a.Unlock()\n\tx.b.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.ab()\n\tv.ba()\n}"
        )
        assert len(check_lock_order(prog, alias)) == 1

    def test_consistent_order_clean(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) one() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func (x *s) two() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.one()\n\tv.two()\n}"
        )
        assert check_lock_order(prog, alias) == []

    def test_order_through_call(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) lockB() {\n\tx.b.Lock()\n\tx.b.Unlock()\n}\n"
            "func (x *s) ab() {\n\tx.a.Lock()\n\tx.lockB()\n\tx.a.Unlock()\n}\n"
            "func (x *s) ba() {\n\tx.b.Lock()\n\tx.a.Lock()\n\tx.a.Unlock()\n\tx.b.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.ab()\n\tv.ba()\n}"
        )
        assert len(check_lock_order(prog, alias)) == 1


class TestStructRace:
    PROTECTED = (
        "type c struct {\n\tmu sync.Mutex\n\tval int\n}\n"
        "func (x *c) a() {\n\tx.mu.Lock()\n\tx.val = 1\n\tx.mu.Unlock()\n}\n"
        "func (x *c) b() int {\n\tx.mu.Lock()\n\tv := x.val\n\tx.mu.Unlock()\n\treturn v\n}\n"
        "func (x *c) cc() {\n\tx.mu.Lock()\n\tx.val = 2\n\tx.mu.Unlock()\n}\n"
    )

    def test_unprotected_write_reported(self):
        prog, cg, alias = prepared(
            self.PROTECTED
            + "func (x *c) racy() {\n\tx.val = 9\n}\n"
            + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n\tv.racy()\n}"
        )
        reports = check_struct_races(prog, alias)
        assert len(reports) == 1
        assert "racy" in reports[0].description

    def test_all_protected_clean(self):
        prog, cg, alias = prepared(
            self.PROTECTED + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n}"
        )
        assert check_struct_races(prog, alias) == []

    def test_never_protected_field_not_reported(self):
        prog, cg, alias = prepared(
            "type c struct {\n\tval int\n}\n"
            "func (x *c) a() {\n\tx.val = 1\n}\n"
            "func (x *c) b() int {\n\treturn x.val\n}\n"
            "func (x *c) d() {\n\tx.val = 2\n}\n"
            "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.d()\n}"
        )
        assert check_struct_races(prog, alias) == []

    def test_unprotected_reads_only_not_reported(self):
        prog, cg, alias = prepared(
            self.PROTECTED
            + "func (x *c) peek() int {\n\treturn x.val\n}\n"
            + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n\tv.peek()\n}"
        )
        assert check_struct_races(prog, alias) == []


class TestFatalGoroutine:
    def test_fatal_in_spawned_closure(self):
        prog, cg, alias = prepared(
            'func TestX(t *testing.T) {\n\tgo func() {\n\t\tt.Fatal("x")\n\t}()\n}'
        )
        reports = check_fatal_goroutine(prog, cg)
        assert len(reports) == 1

    def test_fatal_in_main_test_goroutine_clean(self):
        prog, cg, alias = prepared('func TestX(t *testing.T) {\n\tt.Fatal("x")\n}')
        assert check_fatal_goroutine(prog, cg) == []

    def test_fatal_reached_through_call_chain(self):
        prog, cg, alias = prepared(
            "func helper(t *testing.T) {\n\tt.FailNow()\n}\n"
            "func TestX(t *testing.T) {\n\tgo func() {\n\t\thelper(t)\n\t}()\n}"
        )
        assert len(check_fatal_goroutine(prog, cg)) == 1

    def test_errorf_not_reported(self):
        prog, cg, alias = prepared(
            'func TestX(t *testing.T) {\n\tgo func() {\n\t\tt.Errorf("x")\n\t}()\n}'
        )
        assert check_fatal_goroutine(prog, cg) == []


class TestWalkReference:
    """``locksets.walk_function`` continues a path through the last
    successor of a branch in place and copies it only for the others.
    The reference below copies the whole path state at every block; both
    must yield the same paths, in the same order, with the same iteration
    order inside every lockset (report order depends on it)."""

    @staticmethod
    def reference_walk(func, alias):
        from repro.detector.traditional import locksets as L
        from repro.ssa import ir

        def walk(block, path, held, deferred, visits, out):
            if len(out) >= L.MAX_LOCK_PATHS:
                return
            held, deferred, path = set(held), list(deferred), L._copy_path(path)
            for instr in block.instrs:
                L._visit(instr, path, held, deferred, alias)
            terminator = block.terminator
            if terminator is None or isinstance(terminator, (ir.Return, ir.Panic)):
                path.returns.append(L.ReturnPoint(
                    line=getattr(terminator, "line", 0),
                    held=frozenset(held - set(deferred)),
                ))
                out.append(path)
                return
            successors = terminator.successors()
            if not successors:
                out.append(path)
                return
            for succ in successors:
                count = visits.get(succ.id, 0)
                if count >= L.MAX_BLOCK_VISITS:
                    out.append(path)
                    continue
                walk(succ, path, held, deferred, {**visits, succ.id: count + 1}, out)

        out = []
        if func.entry is not None:
            walk(func.entry, L.LockPath(), set(), [], {}, out)
        return out

    @staticmethod
    def shape(paths):
        def sites(group):
            return [str(site) for site in group]

        return [
            (
                [(str(a.site), a.line, sites(a.held_before)) for a in path.acquires],
                [(x.struct_hint, x.field_name, x.line, x.is_write, sites(x.lockset))
                 for x in path.accesses],
                [(r.line, sites(r.held)) for r in path.returns],
                [(c.callee, c.line, sites(c.held)) for c in path.calls],
                [(str(site), line) for site, line in path.double_locks],
            )
            for path in paths
        ]

    def test_a_cut_branch_keeps_its_path_as_it_was(self):
        """On the path entry → loop → head → loop → head, the second
        ``head`` cuts its first successor, ``loop`` (visited twice), while
        its last one, ``tail``, goes on to a field write and a return. The
        path the cut ended (the first) must not gain them."""
        from types import SimpleNamespace

        from repro.detector.traditional.locksets import walk_function
        from repro.ssa import ir

        func = ir.Function("f", params=[])
        entry, loop, head, tail = (ir.Block(n) for n in ("entry", "loop", "head", "tail"))
        func.blocks, func.entry = [entry, loop, head, tail], entry
        entry.terminate(ir.CondJump(cond=ir.Var("c"), true_block=loop, false_block=head))
        loop.terminate(ir.Jump(target=head))
        head.terminate(ir.CondJump(cond=ir.Var("c"), true_block=loop, false_block=tail))
        tail.append(ir.FieldSet(obj=ir.Var("s"), field_name="n", value=ir.Var("v"), line=7))
        tail.terminate(ir.Return(line=8))
        alias = SimpleNamespace(program=None, sites_of=lambda op: [])
        paths = walk_function(func, alias)
        assert self.shape(paths) == self.shape(self.reference_walk(func, alias))
        assert [len(path.returns) for path in paths] == [0, 1, 1, 0, 1, 1]

    def test_matches_the_copying_walk_on_apps_bug_set_and_fuzz(self):
        from repro.corpus.apps import build_corpus
        from repro.corpus.bugset import build_bug_set
        from repro.detector.traditional.locksets import walk_function
        from repro.fuzz.generator import generate_program
        from repro.ssa.builder import build_program

        programs = [app.program() for app in build_corpus()]
        programs += [build_program(c.source, c.case_id) for c in build_bug_set()]
        for index in range(100):
            generated = generate_program(0, index)
            programs.append(build_program(generated.source, generated.name + ".go"))
        functions = 0
        for program in programs:
            alias = run_alias_analysis(program, build_call_graph(program))
            for func in program:
                assert self.shape(walk_function(func, alias)) == self.shape(
                    self.reference_walk(func, alias)
                ), func.name
                functions += 1
        assert functions > 3000
