"""Smoke tests of the benchmark at a tiny size.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(the repository's own test run collects ``tests/`` only). Each workload
runs once untraced and once traced; every metric ``BENCHMARK.json`` names
must be printed with its unit, and no verdict may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_failed_verdict(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    for name in ("verdicts_per_s", "setup_s", "peak_rss_mb") if not trace else ():
        assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    sys.path.insert(0, HERE)
    from common import Tracer

    tracer = Tracer()
    with tracer.span("outer", "v1"):
        with tracer.span("inner", "v1"):
            pass
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    outer = spans["outer"]["end"] - spans["outer"]["start"]
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    own = tracer.self_times()
    assert own["outer"] == pytest.approx(outer - inner)
    assert own["inner"] == pytest.approx(inner)


def test_host_speed_divides_by_the_kernel_time_around_each_verdict():
    sys.path.insert(0, HERE)
    from hostspeed import KERNEL_REF_S, HostSpeed

    speed = HostSpeed()
    speed.samples = [(0.0, KERNEL_REF_S), (1.0, KERNEL_REF_S),
                     (20.0, 2 * KERNEL_REF_S), (21.0, 2 * KERNEL_REF_S)]
    times = [t for t, _ in speed.samples]
    assert speed.slowness_at(0.5, times) == pytest.approx(1.0)
    assert speed.slowness_at(20.5, times) == pytest.approx(2.0)
    # no sample within the window: the two nearest
    assert speed.slowness_at(10.5, times) == pytest.approx(1.5)
    # the same work on a host twice as slow reads the same
    assert speed.scale([0.4, 20.4], [0.1, 0.2]) == pytest.approx([0.1, 0.1])
    assert speed.slowness() == pytest.approx(1.5)
    speed.measure(0.0)
    assert len(speed.samples) == 5 and speed.samples[-1][1] > 0
