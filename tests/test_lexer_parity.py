"""Parity of the compiled scanner with the reference lexer.

``repro.golang.lexer.tokenize`` is one master regex; ``tests/lexer_oracle.py``
is the character-at-a-time lexer it replaced. On every input below the two
must yield the same ``(kind, text, line, col)`` stream, or raise a
``LexError`` with the same message at the same position:

- the 21 Table 1 apps, the bug set, the split Docker project of the
  daemon benchmark and the first 100 seed-0 fuzz programs;
- 2,400 character-level mutants of the bug set and those fuzz programs,
  from a fixed-seed RNG, over an alphabet of the characters where the two
  could part: quotes, backslashes, comment delimiters, newlines, and
  non-ASCII digits, numerals and letters;
- two hypothesis properties: strings over the same alphabet plus MiniGo
  fragments, and the alphabet inserted anywhere in those programs;
- under ``-m slow``, 200 programs each of fuzz seeds 0-2.

The mutants also go through ``build_program``, which must reject a bad one
with ``LexError``, ``ParseError`` or ``BuildError`` and nothing else.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.apps import build_corpus
from repro.corpus.bugset import build_bug_set
from repro.fuzz.generator import generate_program
from repro.golang.lexer import LexError, tokenize
from repro.golang.parser import ParseError
from repro.ssa.builder import BuildError, build_program
from tests import lexer_oracle
from tests.conftest import split_docker_files

#: what a mutation inserts or writes over: every character class the
#: scanner handles apart from plain code
HOSTILE = [
    "#", "`", "'", "\\", '"', "/*", "*/", "//", "\n", "\r", "\t",
    "²", "٣", "Ⅻ", "¼", "é",
]

#: MiniGo pieces the property strings mix in, so that semicolon insertion,
#: keywords, literals and operators meet the hostile characters
FRAGMENTS = [
    " ", "x", "é", "_", "1", "42", "return", "go", "chan", "}", ")", "]",
    "{", "(", "++", "--", "<-", ":=", "...", "/", "*", ".", "n",
]

MUTANTS = 2400


def lex(scanner, source: str):
    """One lexer's outcome: its token stream, or its error."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in scanner(source)]
    except LexError as err:
        return ("LexError", str(err), err.line, err.col)


def assert_parity(source: str) -> None:
    assert lex(tokenize, source) == lex(lexer_oracle.tokenize, source)


@lru_cache(maxsize=None)
def small_programs() -> Tuple[str, ...]:
    return tuple(case.source for case in build_bug_set()) + tuple(
        generate_program(0, index).source for index in range(100)
    )


def mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(source) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            source = source[:at] + rng.choice(HOSTILE) + source[at:]
        elif edit == "delete":
            source = source[:at] + source[at + 1:]
        else:
            source = source[:at] + rng.choice(HOSTILE) + source[at + 1:]
    return source


@lru_cache(maxsize=None)
def mutants() -> Tuple[str, ...]:
    rng = random.Random(20210419)
    programs = small_programs()
    return tuple(mutate(rng.choice(programs), rng) for _ in range(MUTANTS))


class TestCorpora:
    def test_table1_apps(self):
        apps = build_corpus()
        assert len(apps) == 21
        for app in apps:
            assert_parity(app.source)

    def test_bug_set(self):
        for case in build_bug_set():
            assert_parity(case.source)

    def test_split_docker_project(self):
        files = split_docker_files()
        assert len(files) == 105
        for source in files.values():
            assert_parity(source)

    def test_first_100_seed0_fuzz_programs(self):
        for index in range(100):
            assert_parity(generate_program(0, index).source)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_200_fuzz_programs(self, seed):
        for index in range(200):
            assert_parity(generate_program(seed, index).source)


class TestMutants:
    def test_mutants_lex_the_same(self):
        errors = 0
        for source in mutants():
            outcome = lex(tokenize, source)
            assert outcome == lex(lexer_oracle.tokenize, source), repr(source)
            errors += isinstance(outcome, tuple)
        # the alphabet must reach both the error paths and the token paths
        assert 0 < errors < MUTANTS

    def test_front_end_rejects_with_its_own_errors(self):
        """``²`` once lexed as an integer, and ``int("²")`` raised
        ``ValueError`` out of the parser."""
        built = 0
        for source in mutants():
            try:
                build_program(source, "mutant.go")
            except (LexError, ParseError, BuildError):
                continue
            built += 1
        assert 0 < built < MUTANTS


class TestProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(HOSTILE + FRAGMENTS), max_size=40).map("".join))
    def test_any_string_lexes_the_same(self, source):
        assert_parity(source)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.lists(st.sampled_from(HOSTILE), min_size=1, max_size=3).map("".join),
    )
    def test_any_insertion_into_a_program_lexes_the_same(self, which, where, text):
        programs = small_programs()
        source = programs[which % len(programs)]
        at = where % (len(source) + 1)
        assert_parity(source[:at] + text + source[at:])
