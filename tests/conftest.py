"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.ssa.builder import build_program


def build(source: str, filename: str = "test.go"):
    """Parse + lower a MiniGo snippet (adds the package clause)."""
    if not source.lstrip().startswith("package"):
        source = "package main\n" + source
    return build_program(source, filename)


def reference_reports(program):
    """What the engine must reproduce, composed without it: the unguarded
    ``BMOCDetector.detect`` loop plus every traditional checker, deduped
    the way ``GCatchResult.all_reports`` lists them."""
    from repro.detector.bmoc import BMOCDetector
    from repro.detector.reporting import dedup_reports
    from repro.detector.traditional import TRADITIONAL_CHECKERS, run_checker

    detector = BMOCDetector(program)
    traditional = [
        report
        for name in TRADITIONAL_CHECKERS
        for report in run_checker(name, program, detector)
    ]
    return list(detector.detect().reports) + dedup_reports(traditional)


@pytest.fixture
def figure1_source() -> str:
    from repro.corpus.snippets import FIGURE1

    return FIGURE1.source


@pytest.fixture
def figure3_source() -> str:
    from repro.corpus.snippets import FIGURE3

    return FIGURE3.source


@pytest.fixture
def figure4_source() -> str:
    from repro.corpus.snippets import FIGURE4

    return FIGURE4.source
