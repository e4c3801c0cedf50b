"""Tests for the observability layer (``repro.obs``).

Covers span nesting and timing monotonicity, counter aggregation across
goroutine-spawning explorer runs, the JSON snapshot schema, and — the
acceptance criterion — a full ``Project.detect`` trace containing every
pipeline stage exactly once in the aggregated stage table.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import Project
from repro.corpus.snippets import FIGURE1
from repro.obs import (
    NULL,
    PIPELINE_STAGES,
    SCHEMA,
    Collector,
    Dist,
    NullCollector,
    json_dumps,
    render_stats,
    snapshot,
)


# -- spans -------------------------------------------------------------------


def test_span_nesting_builds_a_tree():
    c = Collector()
    with c.span("outer"):
        with c.span("inner-a"):
            pass
        with c.span("inner-b"):
            with c.span("leaf"):
                pass
    assert len(c.spans) == 1
    outer = c.spans[0]
    assert outer.name == "outer"
    assert [child.name for child in outer.children] == ["inner-a", "inner-b"]
    assert [g.name for g in outer.children[1].children] == ["leaf"]
    assert [s.name for s in outer.walk()] == ["outer", "inner-a", "inner-b", "leaf"]


def test_span_timing_is_monotone():
    c = Collector()
    with c.span("outer"):
        with c.span("inner"):
            time.sleep(0.002)
    outer = c.spans[0]
    inner = outer.children[0]
    assert inner.seconds > 0
    # a parent encloses its children, so it can never be cheaper
    assert outer.seconds >= inner.seconds
    assert outer.end is not None and outer.end >= outer.start


def test_stage_totals_aggregate_repeated_entries():
    c = Collector()
    for _ in range(3):
        with c.span("solve"):
            pass
    totals = c.stage_totals()
    assert totals["solve"][0] == 3
    assert totals["solve"][1] >= 0.0


def test_leaked_inner_span_cannot_corrupt_the_stack():
    c = Collector()
    outer = c.span("outer")
    inner = c.span("inner")  # never closed explicitly
    outer.__exit__()
    assert [s.name for s in c.spans] == ["outer"]
    assert c._stack == []


# -- counters / gauges / distributions ---------------------------------------


def test_counters_accumulate_and_gauges_overwrite():
    c = Collector()
    c.count("x")
    c.count("x", 4)
    c.gauge("g", 1.0)
    c.gauge("g", 7.5)
    assert c.counters["x"] == 5
    assert c.gauges["g"] == 7.5


def test_distributions_track_count_mean_min_max():
    d = Dist()
    for v in (4, 2, 6):
        d.add(v)
    assert (d.count, d.total, d.min, d.max) == (3, 12, 2, 6)
    assert d.mean == 4


def test_merge_folds_counters_spans_and_dists():
    a, b = Collector("a"), Collector("b")
    a.count("n", 1)
    b.count("n", 2)
    b.observe("sz", 10)
    a.observe("sz", 2)
    with b.span("solve"):
        pass
    a.merge(b)
    assert a.counters["n"] == 3
    assert a.dists["sz"].count == 2
    assert a.dists["sz"].min == 2 and a.dists["sz"].max == 10
    assert "solve" in a.stage_totals()


# -- the no-op default -------------------------------------------------------


def test_null_collector_is_falsy_and_inert():
    assert not NULL
    assert isinstance(NULL, NullCollector)
    with NULL.span("anything"):
        pass
    NULL.count("x")
    NULL.gauge("g", 1)
    NULL.observe("d", 1)
    assert NULL.spans == [] and NULL.counters == {} and NULL.dists == {}
    # `collector or NULL` is the call-site normalization
    assert (None or NULL) is NULL
    real = Collector()
    assert (real or NULL) is real


def test_detect_without_collector_leaves_no_trace():
    project = Project.from_source(FIGURE1.source, "figure1.go")
    result = project.detect()
    assert result.trace is None
    assert project.collector is NULL


# -- JSON schema -------------------------------------------------------------


def test_snapshot_round_trips_through_json():
    c = Collector("roundtrip")
    with c.span("parse"):
        with c.span("ssa-build"):
            pass
    c.count("paths.enumerated", 12)
    c.gauge("g", 3.5)
    c.observe("pset.size", 4)
    c.observe("pset.size", 8)
    first = snapshot(c)
    assert first["schema"] == SCHEMA
    assert json.loads(json_dumps(first)) == first


def test_snapshot_orders_pipeline_stages_first():
    c = Collector()
    with c.span("gcatch"):  # not a pipeline stage
        pass
    with c.span("solve"):
        pass
    with c.span("parse"):
        pass
    names = [s["name"] for s in snapshot(c)["stages"]]
    assert names == ["parse", "solve", "gcatch"]


# -- full-pipeline traces ----------------------------------------------------


def test_full_detect_trace_has_every_stage_exactly_once():
    collector = Collector("figure1")
    project = Project.from_source(FIGURE1.source, "figure1.go", collector=collector)
    result = project.detect()
    assert result.trace is collector
    stages = [s["name"] for s in snapshot(collector)["stages"] if s["name"] in PIPELINE_STAGES]
    assert stages == list(PIPELINE_STAGES)
    totals = collector.stage_totals()
    for stage in PIPELINE_STAGES:
        assert totals[stage][1] > 0.0, f"stage {stage} recorded no time"
    # the per-bug cost fields (Table 6 analogue) are populated
    report = result.bmoc.reports[0]
    assert report.clause_count > 0
    assert report.solver_nodes > 0
    assert report.solver_outcome == "sat"
    assert "solver effort" in report.render()


def test_explorer_aggregates_counters_across_goroutine_spawning_runs():
    collector = Collector()
    project = Project.from_source(FIGURE1.source, "figure1.go", collector=collector)
    exploration = project.explore(entry=FIGURE1.entry, max_runs=64)
    assert exploration.trace is collector
    assert collector.counters["explore.runs"] == exploration.runs
    # Figure 1's entry spawns a goroutine per run, so the interpreter-level
    # counter aggregates across every explorer-driven execution
    assert collector.counters["run.goroutines"] >= exploration.runs
    payload = exploration.to_json()
    assert payload["kind"] == "exploration"
    assert payload["stats"]["schema"] == SCHEMA
    # runs after the first resume from checkpoints; the saving repeats exactly
    saving = {
        name: collector.counters[name]
        for name in ("explore.checkpoints", "explore.restored-steps")
    }
    assert all(value > 0 for value in saving.values())
    again = Collector()
    Project.from_source(FIGURE1.source, "figure1.go", collector=again).explore(
        entry=FIGURE1.entry, max_runs=64
    )
    assert {name: again.counters[name] for name in saving} == saving


def test_fix_all_and_validate_report_into_the_same_collector():
    collector = Collector()
    project = Project.from_source(FIGURE1.source, "figure1.go", collector=collector)
    result = project.detect()
    summary = project.fix_all(result.bmoc.bmoc_channel_bugs())
    assert summary.trace is collector
    assert summary.fixed()
    assert collector.counters["fix.attempt.buffer"] >= 1
    totals = collector.stage_totals()
    assert "fix-preprocess" in totals and "fix-transform" in totals


def test_render_stats_mentions_every_recorded_stage():
    collector = Collector()
    project = Project.from_source(FIGURE1.source, "figure1.go", collector=collector)
    project.detect()
    text = render_stats(collector)
    for stage in PIPELINE_STAGES:
        assert stage in text


# -- lineage: span ids, adoption, trace propagation --------------------------


def test_spans_carry_unique_ids_and_parent_links():
    c = Collector(trace_id="t" * 32)
    with c.span("outer"):
        with c.span("inner"):
            pass
    outer = c.spans[0]
    inner = outer.children[0]
    assert outer.span_id and inner.span_id and outer.span_id != inner.span_id
    assert inner.parent_id == outer.span_id
    assert outer.trace_id == inner.trace_id == "t" * 32


def test_adopt_spans_reparents_under_the_open_span():
    sub = Collector("shard")
    with sub.span("engine-shard"):
        with sub.span("solve"):
            pass
    main = Collector("run", trace_id="abc123")
    with main.span("gcatch"):
        main.adopt_spans(sub.spans)
    gcatch = main.spans[0]
    shard = gcatch.children[0]
    assert shard.name == "engine-shard"
    assert shard.parent_id == gcatch.span_id
    # adoption re-roots the whole subtree onto the adopter's trace
    assert all(s.trace_id == "abc123" for s in gcatch.walk())


def test_merge_adopts_spans_with_lineage_not_flat():
    sub = Collector("worker")
    with sub.span("engine-shard"):
        pass
    main = Collector("run")
    with main.span("gcatch"):
        main.merge(sub)
    assert len(main.spans) == 1  # single rooted tree, not a flat sibling
    assert main.spans[0].children[0].name == "engine-shard"
    assert main.spans[0].children[0].parent_id == main.spans[0].span_id


# -- real distributions ------------------------------------------------------


def test_dist_percentiles_from_reservoir():
    d = Dist()
    for v in range(1, 101):  # 1..100
        d.add(float(v))
    assert d.p50 == pytest.approx(50, abs=2)
    assert d.p95 == pytest.approx(95, abs=2)
    assert d.p99 == pytest.approx(99, abs=2)


def test_dist_reservoir_is_bounded_and_deterministic():
    from repro.obs import RESERVOIR_SIZE

    a, b = Dist(), Dist()
    for v in range(10_000):
        a.add(float(v))
        b.add(float(v))
    assert len(a.samples) == RESERVOIR_SIZE
    # fixed-seed algorithm R: identical observation sequences keep the
    # identical sample (percentiles are reproducible byte-for-byte)
    assert a.samples == b.samples
    assert a.p99 is not None and a.p99 > a.p50


def test_dist_histogram_buckets_count_every_observation():
    from repro.obs import DEFAULT_BUCKET_BOUNDS

    d = Dist()
    values = [0.0005, 0.003, 0.07, 0.3, 2.0, 999.0]
    for v in values:
        d.add(v)
    assert sum(d.buckets) == len(values)
    assert len(d.buckets) == len(DEFAULT_BUCKET_BOUNDS) + 1
    assert d.buckets[-1] == 1  # the +Inf bucket caught 999.0


def test_dist_merge_adds_buckets_and_bounds_reservoir():
    from repro.obs import RESERVOIR_SIZE

    a, b = Dist(), Dist()
    for v in range(300):
        a.add(float(v))
    for v in range(300, 600):
        b.add(float(v))
    a.merge(b)
    assert a.count == 600
    assert sum(a.buckets) == 600
    assert len(a.samples) <= RESERVOIR_SIZE
    assert a.min == 0.0 and a.max == 599.0


# -- repro.obs/2 schema ------------------------------------------------------


def test_snapshot_v2_round_trips_histograms_and_lineage():
    c = Collector("roundtrip", trace_id="cafe" * 8)
    with c.span("gcatch", shard="leakOne:chan"):
        with c.span("solve"):
            pass
    for v in (0.001, 0.5, 3.0):
        c.observe("lat", v)
    payload = json.loads(json_dumps(snapshot(c)))
    assert payload["schema"] == SCHEMA == "repro.obs/2"
    assert payload["trace_id"] == "cafe" * 8
    dist = payload["distributions"]["lat"]
    assert dist["p50"] is not None and sum(dist["buckets"]) == 3
    assert dist["p95"] == c.dists["lat"].p95
    assert dist["buckets"] == c.dists["lat"].buckets
    root = payload["spans"][0]
    assert root["trace_id"] == "cafe" * 8
    assert root["attrs"] == {"shard": "leakOne:chan"}
    assert root["children"][0]["parent_id"] == root["span_id"]


# -- Prometheus exposition ---------------------------------------------------


def test_render_prometheus_is_valid_line_by_line():
    from repro.obs import render_prometheus, validate_exposition

    c = Collector("prom")
    with c.span("gcatch"):
        with c.span("solve"):
            pass
    c.count("solver.calls", 3)
    c.gauge("service.queue-depth", 2)
    for v in (0.01, 0.2, 1.5):
        c.observe("service.request.seconds", v)
    text = render_prometheus(c)
    assert validate_exposition(text) == []
    assert text.endswith("\n")
    lines = text.splitlines()
    assert 'repro_stage_seconds_total{stage="gcatch"}' in text
    assert "repro_solver_calls_total 3" in lines
    assert "repro_service_queue_depth 2" in lines
    # the request-latency histogram with percentile gauges
    assert any(
        l.startswith('repro_service_request_seconds_bucket{le="0.025"}')
        for l in lines
    )
    assert "repro_service_request_seconds_count 3" in lines
    for q in ("p50", "p95", "p99"):
        assert any(l.startswith(f"repro_service_request_seconds_{q} ") for l in lines)


def test_validate_exposition_flags_garbage():
    from repro.obs import validate_exposition

    bad = validate_exposition("ok_metric 1\nnot a metric line!\n")
    assert bad == ["not a metric line!"]


# -- OTLP-ish trace export ---------------------------------------------------


def test_trace_to_otlp_flattens_with_lineage(tmp_path):
    from repro.obs import trace_to_otlp, write_trace

    c = Collector("svc", trace_id="beef" * 8)
    with c.span("service-request", method="detect"):
        with c.span("gcatch"):
            pass
    payload = trace_to_otlp(c)
    spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert [s["name"] for s in spans] == ["service-request", "gcatch"]
    root, child = spans
    assert child["parentSpanId"] == root["spanId"]
    assert root["traceId"] == child["traceId"] == "beef" * 8
    assert root["endTimeUnixNano"] >= root["startTimeUnixNano"]
    assert {"key": "method", "value": {"stringValue": "detect"}} in root["attributes"]
    out = tmp_path / "trace.json"
    write_trace(c, str(out))
    assert json.loads(out.read_text()) == payload


# -- telemetry journal and `repro top` ---------------------------------------


def test_journal_appends_and_reads_records(tmp_path):
    from repro.obs import TelemetryJournal, request_record

    journal = TelemetryJournal(str(tmp_path / "telemetry.jsonl"))
    for i in range(5):
        journal.append(
            request_record(
                trace_id=f"t{i}", method="detect", outcome="ok",
                elapsed_seconds=0.1 * i,
            )
        )
    records = journal.read()
    assert [r["trace_id"] for r in records] == [f"t{i}" for i in range(5)]
    assert journal.read(last=2)[0]["trace_id"] == "t3"


def test_journal_rotates_at_max_bytes_and_bounds_files(tmp_path):
    from repro.obs import TelemetryJournal, request_record

    path = str(tmp_path / "j.jsonl")
    journal = TelemetryJournal(path, max_bytes=400, max_files=3)
    for i in range(50):
        journal.append(
            request_record(
                trace_id=f"trace-{i:04d}", method="detect", outcome="ok",
                elapsed_seconds=0.01,
            )
        )
    import os

    files = journal.files()
    assert 1 < len(files) <= 3
    assert all(os.path.getsize(f) <= 400 for f in files)
    # newest record survives; oldest rotated out
    records = journal.read()
    assert records[-1]["trace_id"] == "trace-0049"
    assert records[0]["trace_id"] != "trace-0000"


def test_journal_skips_corrupt_lines(tmp_path):
    from repro.obs import TelemetryJournal

    path = tmp_path / "j.jsonl"
    path.write_text('{"trace_id": "good", "elapsed_seconds": 0.1}\n{torn\n')
    journal = TelemetryJournal(str(path))
    assert [r["trace_id"] for r in journal.read()] == ["good"]


def test_journal_append_after_crash_mid_write_keeps_next_record(tmp_path):
    """A daemon killed mid-write leaves a torn, newline-less tail; the next
    record must start on a fresh line, so only the torn record is lost."""
    from repro.fleet import SweepManifest
    from repro.obs import TelemetryJournal

    path = str(tmp_path / "j.jsonl")
    journal = TelemetryJournal(path)
    journal.append({"n": 1})
    with open(path, "a") as handle:
        handle.write('{"n": 2, "trace_')  # killed mid-write
    journal.append({"n": 3})
    assert [r["n"] for r in journal.read()] == [1, 3]
    # the sweep manifest reads the same file the same way
    assert [r["n"] for r in SweepManifest(path).iter_records()] == [1, 3]


def test_summarize_and_render_top(tmp_path):
    from repro.obs import render_top, request_record, summarize

    records = []
    for i in range(20):
        records.append(
            request_record(
                trace_id=f"tr{i}", method="detect" if i % 2 else "stats",
                outcome="ok" if i != 7 else "crashed",
                elapsed_seconds=0.01 * (i + 1),
                queue_wait_seconds=0.001,
                cache={"hits": 3, "misses": 1},
                incidents=1 if i == 7 else 0,
            )
        )
        records[-1]["ts"] = 1000.0 + i  # deterministic window
    summary = summarize(records)
    assert summary["requests"] == 20
    assert summary["throughput_rps"] == pytest.approx(20 / 19)
    assert summary["error_rate"] == pytest.approx(1 / 20)
    assert summary["cache_hit_rate"] == pytest.approx(0.75)
    assert summary["latency"].p50 is not None
    assert summary["slowest"][0]["elapsed_seconds"] == pytest.approx(0.2)
    text = render_top(records)
    assert "latency p50/p95/p99" in text
    assert "cache hit rate" in text and "75%" in text
    assert "detect" in text and "stats" in text
    assert render_top([]).startswith("repro top: journal is empty")


def test_summarize_counts_old_quota_outcomes_as_sheds():
    """Journals written while the daemon had a token-bucket quota hold
    ``quota`` outcomes; they stay sheds, not errors."""
    from repro.obs import request_record, summarize

    records = [
        request_record(
            trace_id=f"tr{i}", method="detect", outcome=outcome,
            elapsed_seconds=0.0, tenant="b",
        )
        for i, outcome in enumerate(["ok", "overloaded", "quota"])
    ]
    summary = summarize(records)
    assert summary["sheds"] == 2
    assert summary["error_rate"] == 0.0
    assert summary["by_tenant"]["b"]["sheds"] == 2
    assert summary["by_tenant"]["b"]["served"] == 1
