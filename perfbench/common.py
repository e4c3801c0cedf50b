"""Shared pieces of the benchmark: the span recorder, percentiles, peak
memory and run provenance.

Every timing the benchmark reports is taken here, on the benchmark's side
of a call into a public ``repro`` function; nothing under ``src/`` is
instrumented for it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: temp projects, span dumps, results
OUT_DIR = os.path.join(ROOT, ".bench_out")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class Tracer:
    """In-memory spans around public calls: name, start, end, parent span
    and verdict id. Spans nest by call order; :meth:`dump` writes them
    with their self time (duration minus the time children cover)."""

    def __init__(self):
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, verdict: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "verdict": verdict,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def seconds_per_round(self, rounds: int) -> Dict[str, tuple]:
        """Each span name's summed time per round, as layer metric
        ``<name>_s`` with its span count."""
        names = {s["name"] for s in self.spans}
        return {f"{n}_s": (self.total(n) / rounds, self.count(n)) for n in sorted(names)}

    def self_times(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def dump(self) -> dict:
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "spans": [
                dict(s, start=s["start"] - origin, end=s["end"] - origin)
                for s in self.spans
            ],
            "self_seconds": self.self_times(),
        }


#: an untraced run times at least this many verdicts, so that at least ten
#: lie beyond its p90
MIN_VERDICTS = 100


def keep_measuring(latencies: List[float], seconds: float) -> bool:
    """An untraced run goes on until its verdicts have taken ``seconds``
    and number at least ``MIN_VERDICTS``."""
    return sum(latencies) < seconds or len(latencies) < MIN_VERDICTS


def percentile(values: List[float], pct: int) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when the checkout
    is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "inputs": inputs,
    }


#: Every per-layer metric, name -> unit. Values are per round of the
#: workload (one corpus pass, one fuzz program, one daemon edit step).
#: A workload fills the layers it calls; a layer it never reaches reads 0,
#: which is the prediction for a change to that layer on that workload.
LAYER_METRICS = {
    "golang.parse_s": "s",
    "golang.kloc_per_s": "kloc/s",
    "ssa.build_s": "s",
    "ssa.instrs": "count",
    "analysis.setup_s": "s",
    "detector.gcatch_s": "s",
    "detector.channel_s": "s",
    "detector.traditional_s": "s",
    "detector.channels": "count",
    "detector.combinations": "count",
    "detector.groups": "count",
    "constraints.solver_calls": "count",
    "constraints.sat_share": "share",
    "fixer.preprocess_s": "s",
    "fixer.transform_s": "s",
    "fixer.fixed_share": "share",
    "runtime.explore_s": "s",
    "runtime.runs": "count",
    "runtime.pruned_runs": "count",
    "runtime.steps": "count",
    "runtime.steps_per_s": "1/s",
    "runtime.complete_share": "share",
    "service.request_s": "s",
    "service.overhead_s": "s",
    "service.refresh_s": "s",
    "service.reparsed_files": "count",
    "engine.detect_s": "s",
    "engine.shards": "count",
    "engine.shards_executed": "count",
    "engine.skip_rate": "share",
    "engine.cache_hit_share": "share",
    "resilience.incidents": "count",
    "trace.untraced_verdicts_per_s": "1/s",
    "trace.traced_verdicts_per_s": "1/s",
    "trace.overhead_share": "share",
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def overhead_layers(untraced: List[float], traced: List[float]) -> Dict[str, tuple]:
    """Tracing overhead from the same verdicts run both ways in one process."""
    return {
        "trace.untraced_verdicts_per_s": (ratio(len(untraced), sum(untraced)), len(untraced)),
        "trace.traced_verdicts_per_s": (ratio(len(traced), sum(traced)), len(traced)),
        "trace.overhead_share": (ratio(sum(traced), sum(untraced)) - 1.0, len(traced)),
    }
