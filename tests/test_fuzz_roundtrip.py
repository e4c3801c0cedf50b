"""Property: parse→print→parse round-trips over the fuzz surface.

Printing a parse (with the test-side ``tests/ast_printer.py``) and
parsing it again must be a fixpoint over every template instance and
over the full mutated/composed generator output.
"""

from __future__ import annotations

import pytest

from repro.corpus.templates import ALL_TEMPLATES
from repro.fuzz.generator import (
    MUTATIONS,
    apply_mutation,
    generate_program,
)
from repro.golang.parser import parse_file
from tests.ast_printer import print_file

ROUND_TRIP_SEED = 0
ROUND_TRIP_COUNT = 200


def normal_form(source: str, name: str = "rt.go") -> str:
    return print_file(parse_file(source, name))


def assert_fixpoint(source: str, context: str) -> None:
    once = normal_form(source)
    twice = normal_form(once)
    assert twice == once, f"printer not a fixpoint for {context}\n{source}"


@pytest.mark.parametrize("template", sorted(ALL_TEMPLATES))
def test_every_template_round_trips(template):
    source = "package main\n" + ALL_TEMPLATES[template]("T0").code
    assert_fixpoint(source, f"template {template}")


@pytest.mark.parametrize("template", sorted(ALL_TEMPLATES))
@pytest.mark.parametrize("op", MUTATIONS)
def test_every_mutated_template_round_trips(template, op):
    code = ALL_TEMPLATES[template]("T0").code
    mutated = apply_mutation(code, op, 2)
    assert_fixpoint("package main\n" + mutated, f"template {template} + {op}")


def test_200_generated_programs_round_trip():
    """The issue's 200-program property sweep, one seed, deterministic."""
    for index in range(ROUND_TRIP_COUNT):
        program = generate_program(ROUND_TRIP_SEED, index)
        assert_fixpoint(program.source, program.name)


def test_round_trip_preserves_parse_shape():
    """Printing must not change what the parser sees: re-parsing the
    printed form yields a file printing identically — and the printed
    form still contains every generated top-level function."""
    program = generate_program(ROUND_TRIP_SEED, 7)
    printed = normal_form(program.source, program.name)
    for spec in program.motifs:
        assert spec.uid in printed
    assert program.entry + "(" in printed
