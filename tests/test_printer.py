"""Tests for the AST -> source printer, including round-trip properties."""

import pytest

from repro.corpus.apps import build_corpus
from repro.corpus.snippets import ALL_SNIPPETS
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from tests.ast_printer import print_file
from repro.ssa.builder import build_program


def normal_form(source: str) -> str:
    """Print a parse; reprinting its own parse must be a fixpoint."""
    return print_file(parse_file(source))


def assert_round_trips(source: str) -> None:
    once = normal_form(source)
    twice = normal_form(once)
    assert once == twice


class TestBasicPrinting:
    def test_function(self):
        out = normal_form("package main\nfunc add(a int, b int) int {\n\treturn a + b\n}")
        assert "func add(a int, b int) int {" in out
        assert "\treturn a + b" in out

    def test_struct_with_qualified_types(self):
        out = normal_form(
            "package main\ntype s struct {\n\tmu sync.Mutex\n\twg sync.WaitGroup\n}"
        )
        assert "mu sync.Mutex" in out
        assert "wg sync.WaitGroup" in out

    def test_channel_operations(self):
        out = normal_form(
            "package main\nfunc f() {\n\tch := make(chan int, 2)\n\tch <- 1\n"
            "\tv := <-ch\n\tclose(ch)\n\tprintln(v)\n}"
        )
        assert "ch := make(chan int, 2)" in out
        assert "ch <- 1" in out
        assert "v := <-ch" in out

    def test_select_with_default(self):
        out = normal_form(
            "package main\nfunc f(a chan int) {\n\tselect {\n"
            "\tcase v := <-a:\n\t\tprintln(v)\n\tcase a <- 1:\n\tdefault:\n\t}\n}"
        )
        assert "case v := <-a:" in out
        assert "case a <- 1:" in out
        assert "default:" in out

    def test_go_func_literal(self):
        out = normal_form(
            "package main\nfunc f() {\n\tgo func() {\n\t\tprintln(1)\n\t}()\n}"
        )
        assert "go func() {" in out
        assert "}()" in out

    def test_if_else_chain(self):
        out = normal_form(
            "package main\nfunc f(x int) {\n\tif x > 0 {\n\t\tprintln(1)\n"
            "\t} else if x < 0 {\n\t\tprintln(2)\n\t} else {\n\t\tprintln(3)\n\t}\n}"
        )
        assert "} else if x < 0 {" in out
        assert "} else {" in out

    def test_three_clause_for(self):
        out = normal_form(
            "package main\nfunc f() {\n\tfor i := 0; i < 4; i++ {\n\t\tprintln(i)\n\t}\n}"
        )
        assert "for i := 0; i < 4; i++ {" in out

    def test_range_over_channel(self):
        out = normal_form(
            "package main\nfunc f(ch chan int) {\n\tfor v := range ch {\n\t\tprintln(v)\n\t}\n}"
        )
        assert "for v := range ch {" in out

    def test_unit_send(self):
        out = normal_form(
            "package main\nfunc f(ch chan struct{}) {\n\tch <- struct{}{}\n}"
        )
        assert "ch <- struct{}{}" in out

    def test_binary_parenthesization_preserves_meaning(self):
        out = normal_form("package main\nfunc f() int {\n\treturn (1 + 2) * 3\n}")
        reparsed = parse_file(out)
        # evaluate via the runtime to confirm semantics survived printing
        program = build_program(out + "\nfunc main() {\n\tprintln(f())\n}")
        from repro.runtime.scheduler import run_program

        assert run_program(program, seed=0).output == ["9"]


class TestRoundTrips:
    @pytest.mark.parametrize("sn", ALL_SNIPPETS, ids=lambda s: s.name)
    def test_figures_round_trip(self, sn):
        assert_round_trips(sn.source)

    def test_figures_still_detect_after_reprint(self):
        from repro.detector.bmoc import detect_bmoc

        for sn in ALL_SNIPPETS:
            reprinted = normal_form(sn.source)
            result = detect_bmoc(build_program(reprinted, sn.name + ".go"))
            assert len(result.bmoc_channel_bugs()) == 1, sn.name

    @pytest.mark.parametrize("app_name", ["bbolt", "Gin", "frp"])
    def test_corpus_apps_round_trip(self, app_name):
        app = next(a for a in build_corpus() if a.name == app_name)
        assert_round_trips(app.source)

    def test_docker_corpus_app_round_trips(self):
        app = next(a for a in build_corpus() if a.name == "Docker")
        assert_round_trips(app.source)
