"""Golden parity of the traditional checkers' reports.

Inside a detect, the four lockset checkers (forget-unlock, double-lock,
conflict-lock, struct-race) read one lock-facts pass that the detector
memoizes, so the engine parity suite, whose reference also runs through
``run_checker``, no longer checks the walk on its own. This suite does:
it renders every traditional report ``run_gcatch`` returns (category,
description, lines and blocked operations, in order) and the same render
composed from the five public ``check_*`` functions, each called on its
own over a fresh alias analysis. The two renders must be equal, and their
sha256 must match the digest captured when every checker still walked
every function itself.

The three corpora (the 21 apps, the bug set and the first 100 seed-0
fuzz programs) take about two seconds together.
"""

from __future__ import annotations

import hashlib

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.corpus.apps import build_corpus
from repro.corpus.bugset import build_bug_set
from repro.detector.gcatch import run_gcatch
from repro.detector.reporting import dedup_reports
from repro.detector.traditional.double_lock import check_double_lock
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import check_forget_unlock
from repro.detector.traditional.lock_order import check_lock_order
from repro.detector.traditional.struct_race import check_struct_races
from repro.fuzz.generator import generate_program
from repro.ssa.builder import build_program


def render(reports) -> str:
    return "".join(
        f"{r.category}|{r.description}|{r.lines}|"
        + ";".join(
            f"{op.kind},{op.function},{op.line},{op.prim_label}"
            for op in r.blocked_ops
        )
        + "\n"
        for r in reports
    )


def public_reports(program):
    """The five public checkers, each on its own, in pipeline order."""
    call_graph = build_call_graph(program)
    alias = run_alias_analysis(program, call_graph)
    return dedup_reports(
        check_forget_unlock(program, alias)
        + check_double_lock(program, alias)
        + check_lock_order(program, alias)
        + check_struct_races(program, alias)
        + check_fatal_goroutine(program, call_graph)
    )


def check_corpus(programs, reports: int, digest: str) -> None:
    engine_text, public_text, count = [], [], 0
    for name, program in programs:
        engine = run_gcatch(program).traditional
        count += len(engine)
        engine_text.append(f"== {name}\n{render(engine)}")
        public_text.append(f"== {name}\n{render(public_reports(program))}")
    assert engine_text == public_text
    assert count == reports
    assert hashlib.sha256("".join(engine_text).encode()).hexdigest() == digest


def test_table1_apps_match_the_golden():
    """Table 1's 119 real traditional bugs plus its 67 false positives."""
    check_corpus(
        [(app.name, app.program()) for app in build_corpus()],
        reports=186,
        digest="4bb885a73e70ae17eb7e29bcc12032e83b16f9d9dc892cfae92d2c507e8ab0cc",
    )


def test_bug_set_matches_the_golden():
    """Miss00 and Miss01 each report one double lock."""
    check_corpus(
        [
            (case.case_id, build_program(case.source, case.case_id))
            for case in build_bug_set()
        ],
        reports=2,
        digest="e1e3f25cfe4b793d4eb486a4faadf925520863b23b623cf4f7a9a9e0534a8ecd",
    )


def test_first_100_seed0_fuzz_programs_match_the_golden():
    """The perfbench fuzz pool; 60 traditional reports."""
    programs = []
    for index in range(100):
        generated = generate_program(0, index)
        programs.append(
            (generated.name, build_program(generated.source, generated.name + ".go"))
        )
    check_corpus(
        programs,
        reports=60,
        digest="3f4b6bfd09b2fed892f05afdda4a08186ff15716407064f1ea33f2c255998eb7",
    )
