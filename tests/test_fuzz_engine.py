"""Seeded property/fuzz testing over randomly composed corpus programs.

Each seed deterministically composes a MiniGo program out of the corpus
template factories (``repro.corpus.templates``) and checks two properties:

* **round-trip stability** — ``print_file(parse_file(src))`` is a fixpoint:
  printing the parse of printed output reproduces it byte-for-byte;
* **crash-freedom** — ``run_gcatch`` never raises, and its sharded engine
  agrees on the report set with the unsharded reference composition
  (``BMOCDetector.detect`` plus every traditional checker).

On failure the seed and the generated source are printed so the case can
be replayed with ``compose(random.Random(seed))``.
"""

from __future__ import annotations

import random

import pytest

from repro.corpus import templates
from repro.detector.gcatch import run_gcatch
from repro.engine import EngineConfig, ResultCache
from repro.golang.parser import parse_file
from tests.ast_printer import print_file
from repro.ssa.builder import build_program
from tests.conftest import reference_reports

FACTORIES = sorted(
    {
        factory
        for group in templates.REAL_BMOCC_BY_STRATEGY.values()
        for factory in group
    }
    | set(templates.BENIGN_TEMPLATES)
    | {
        factory
        for group in templates.FP_BMOCC_BY_CAUSE.values()
        for factory in group
    }
    | set(templates.TRADITIONAL_REAL.values())
    | set(templates.TRADITIONAL_FP.values())
    | set(templates.UNFIXABLE_BY_REASON.values())
    | {templates.bmocm_real, templates.fp_bmocm},
    key=lambda factory: factory.__name__,
)

SEEDS = list(range(24))


def compose(rng: random.Random) -> str:
    """Deterministically stitch 1-5 template instances into one program."""
    count = rng.randint(1, 5)
    parts = ["package main"]
    for i in range(count):
        factory = rng.choice(FACTORIES)
        parts.append(factory(f"F{i}").code.rstrip())
    return "\n\n".join(parts) + "\n"


def describe(seed: int, source: str) -> str:
    return f"failing seed: {seed}\n--- generated source ---\n{source}\n---"


@pytest.mark.parametrize("seed", SEEDS)
def test_printer_round_trip_is_a_fixpoint(seed):
    source = compose(random.Random(seed))
    printed = print_file(parse_file(source, f"fuzz{seed}.go"))
    reprinted = print_file(parse_file(printed, f"fuzz{seed}-2.go"))
    assert reprinted == printed, describe(seed, source)


@pytest.mark.parametrize("seed", SEEDS)
def test_detection_is_crash_free_and_engine_agrees(seed):
    source = compose(random.Random(seed))
    try:
        program = build_program(source, f"fuzz{seed}.go")
        serial = reference_reports(program)
        engine = run_gcatch(program)
    except Exception:
        print(describe(seed, source))
        raise
    serial_ids = sorted(r.identity() for r in serial)
    engine_ids = sorted(r.identity() for r in engine.all_reports())
    assert engine_ids == serial_ids, describe(seed, source)


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_cached_detection_is_crash_free(seed):
    """The cache path (fingerprint + pickle round-trip) on fuzzed programs."""
    source = compose(random.Random(seed))
    cache = ResultCache()
    try:
        program = build_program(source, f"fuzz{seed}.go")
        cold = run_gcatch(program, EngineConfig(cache=cache))
        warm = run_gcatch(program, EngineConfig(cache=cache))
    except Exception:
        print(describe(seed, source))
        raise
    assert sorted(r.identity() for r in warm.all_reports()) == sorted(
        r.identity() for r in cold.all_reports()
    ), describe(seed, source)


def test_composition_is_deterministic_per_seed():
    for seed in SEEDS[:6]:
        assert compose(random.Random(seed)) == compose(random.Random(seed))
