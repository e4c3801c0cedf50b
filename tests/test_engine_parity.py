"""Parity regression: the sharded engine must reproduce the unsharded detector.

Every case in the evaluation bug set is detected twice — through
``run_gcatch`` (the engine's shard loop) and through the composed
reference (``BMOCDetector.detect`` plus every traditional checker, with
no shards, firewall or cache) — and the sorted report sets must be
identical down to category, lines, blocked operations, and solver
outcome. This is the guarantee that sharding, caching and the firewall
change no verdict.
"""

from __future__ import annotations

import pytest

from repro.corpus.bugset import build_bug_set
from repro.detector.gcatch import run_gcatch
from repro.engine import EngineConfig, ResultCache
from repro.ssa.builder import build_program
from tests.conftest import reference_reports

BUG_SET = build_bug_set()


def keys_of(reports):
    return sorted(
        (
            r.category,
            tuple(r.lines),
            tuple(sorted((op.kind, op.prim_label, op.line) for op in r.blocked_ops)),
            r.solver_outcome,
        )
        for r in reports
    )


def detect_keys(program, config=None):
    return keys_of(run_gcatch(program, config).all_reports())


@pytest.mark.parametrize("case", BUG_SET, ids=[c.case_id for c in BUG_SET])
def test_parallel_detection_matches_serial(case):
    program = build_program(case.source, case.case_id)
    assert detect_keys(program) == keys_of(reference_reports(program))


@pytest.mark.parametrize(
    "case", BUG_SET[::7], ids=[c.case_id for c in BUG_SET[::7]]
)
def test_warm_cache_matches_serial(case):
    """A cache round-trip (cold store, warm load) must also preserve parity."""
    program = build_program(case.source, case.case_id)
    cache = ResultCache()
    serial = keys_of(reference_reports(program))
    cold = detect_keys(program, EngineConfig(cache=cache))
    warm = detect_keys(program, EngineConfig(cache=cache))
    assert cold == serial
    assert warm == serial


def test_engine_span_tree_is_one_rooted_tree():
    """A detect yields one rooted span tree, with trace and parent lineage
    intact through the merge of every shard's own collector."""
    from repro.obs import Collector, new_trace_id

    case = max(BUG_SET, key=lambda c: len(c.source))
    program = build_program(case.source, case.case_id)
    trace = new_trace_id()
    collector = Collector("engine", trace_id=trace)
    result = run_gcatch(program, collector=collector)
    assert len(collector.spans) == 1, "expected one rooted tree"
    root = collector.spans[0]
    for span in root.walk():
        assert span.trace_id == trace, f"{span.name} lost the trace"
        for child in span.children:
            assert child.parent_id == span.span_id
    shard_spans = [c for c in root.children if c.name == "engine-shard"]
    assert len(shard_spans) == len(result.shards)


def test_whole_bugset_counts_match():
    """Aggregate Table 1 counts are unchanged by sharding."""
    serial_total = 0
    engine_total = 0
    for case in BUG_SET:
        program = build_program(case.source, case.case_id)
        serial_total += len(reference_reports(program))
        engine_total += len(run_gcatch(program).all_reports())
    assert engine_total == serial_total
    assert serial_total > 0
