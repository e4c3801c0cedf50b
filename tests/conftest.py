"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.ssa.builder import build_program


def build(source: str, filename: str = "test.go"):
    """Parse + lower a MiniGo snippet (adds the package clause)."""
    if not source.lstrip().startswith("package"):
        source = "package main\n" + source
    return build_program(source, filename)


def split_docker_files() -> Dict[str, str]:
    """The Docker app as one file per template instance plus ``main.go``
    that calls every non-test driver: the project of the
    ``daemon-edit-loop`` benchmark, by file name."""
    return split_app_files("Docker")


def split_app_files(app: str) -> Dict[str, str]:
    """A Table 1 app split the way :func:`split_docker_files` splits
    Docker: one file per template instance plus ``main.go``."""
    from repro.corpus.apps import corpus_app

    files: Dict[str, str] = {}
    calls: List[str] = []
    for k, instance in enumerate(corpus_app(app).instances):
        files[f"inst_{k:03d}.go"] = "package main\n\n" + instance.code.strip("\n") + "\n"
        if instance.driver and not instance.driver.startswith("Test"):
            calls.append(f"\t{instance.driver}()")
    files["main.go"] = "package main\n\nfunc main() {\n" + "\n".join(calls) + "\n}\n"
    return files


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
