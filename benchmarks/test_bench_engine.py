"""Experiment E-engine: sharded detection engine scalability + warm cache.

The engine turns per-primitive BMOC analysis into independent shards, so
detection time should drop as ``--jobs`` grows (on machines with the cores
to back it) while the report set stays byte-identical to the serial
detector. A warm content-addressed cache should skip (nearly) all solver
work on an unchanged program.

Parity and the cache skip rate are asserted unconditionally; the >= 2x
speedup at jobs=4 is asserted only when the host actually has >= 4 CPUs —
on smaller containers the measured numbers are still recorded in the
report table.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import record_report
from repro.corpus import templates
from repro.detector.gcatch import run_gcatch
from repro.engine import ResultCache
from repro.obs import Collector
from repro.report.table import render_simple
from repro.ssa.builder import build_program

CHANNEL_FACTORIES = [
    factory
    for group in templates.REAL_BMOCC_BY_STRATEGY.values()
    for factory in group
] + list(templates.BENIGN_TEMPLATES)

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_detect.json")


def build_wide_program():
    """A program wide enough to shard: ~2x each channel template."""
    parts = ["package main"]
    uid = 0
    for _ in range(2):
        for factory in CHANNEL_FACTORIES:
            parts.append(factory(f"W{uid}").code.rstrip())
            uid += 1
    return build_program("\n\n".join(parts) + "\n", "bench_engine.go")


def keys(result):
    return sorted(r.identity() for r in result.all_reports())


def test_engine_speedup_and_warm_cache(benchmark):
    program = build_wide_program()

    def measure():
        rows = {}
        start = time.perf_counter()
        serial = run_gcatch(program)
        rows["serial"] = (time.perf_counter() - start, serial)
        for jobs in (1, 2, 4):
            start = time.perf_counter()
            result = run_gcatch(program, jobs=jobs)
            rows[f"jobs={jobs}"] = (time.perf_counter() - start, result)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    # parity: every engine configuration reproduces the serial report set
    serial_seconds, serial = rows["serial"]
    for label, (_, result) in rows.items():
        assert keys(result) == keys(serial), f"{label} diverged from serial"

    # warm cache: a re-run on an unchanged program skips >= 90% of solver calls
    cache = ResultCache()
    cold_obs, warm_obs = Collector("cold"), Collector("warm")
    start = time.perf_counter()
    run_gcatch(program, jobs=2, cache=cache, collector=cold_obs)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_gcatch(program, jobs=2, cache=cache, collector=warm_obs)
    warm_seconds = time.perf_counter() - start
    cold_calls = cold_obs.counters["solver.calls"]
    warm_calls = warm_obs.counters.get("solver.calls", 0)
    skip_rate = 1.0 - warm_calls / cold_calls
    assert skip_rate >= 0.9
    assert keys(warm) == keys(serial)

    table = [
        [label, f"{seconds:.3f}", f"{serial_seconds / seconds:.2f}x"]
        for label, (seconds, _) in rows.items()
    ]
    table.append(["cache cold (jobs=2)", f"{cold_seconds:.3f}", "-"])
    table.append(["cache warm (jobs=2)", f"{warm_seconds:.3f}", "-"])
    record_report(
        f"Detection engine scalability ({os.cpu_count()} CPUs; "
        f"warm-cache solver skip rate {skip_rate:.0%})",
        render_simple(["configuration", "seconds", "speedup vs serial"], table),
    )

    # the detect-side perf trajectory artifact: cold vs warm latency and
    # the warm-cache solver skip rate, one number each per configuration
    artifact = {
        "bench": "detect",
        "cpus": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "jobs_seconds": {
            label.split("=", 1)[1]: round(seconds, 3)
            for label, (seconds, _) in rows.items()
            if label.startswith("jobs=")
        },
        "cache_cold_seconds": round(cold_seconds, 3),
        "cache_warm_seconds": round(warm_seconds, 3),
        "solver_skip_rate": round(skip_rate, 4),
        "solver_calls_cold": cold_calls,
        "solver_calls_warm": warm_calls,
    }
    with open(ARTIFACT, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # the >= 2x claim needs real cores behind the pool
    if (os.cpu_count() or 1) >= 4:
        jobs4_seconds = rows["jobs=4"][0]
        assert serial_seconds / jobs4_seconds >= 2.0
