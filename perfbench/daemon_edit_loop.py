"""Workload ``daemon-edit-loop``: one developer's save-and-check loop
against a warm ``repro serve`` daemon.

The Docker corpus app is written as a project of one file per template
instance plus ``main.go``. A daemon with the default settings (2 workers,
in-memory result cache) serves it over TCP to one closed-loop client. A
round is one step: rewrite a seed-chosen file among those that create a
channel, giving its first ``make(chan T[, n])`` the never-seen buffer
size ``step``, then send ``detect`` and wait for the verdict. A verdict
fails on an error response, a non-``ok`` health or an incident, and on a
seed-chosen 4% of the steps plus the final state its reports must equal a
one-shot ``Project.from_path(dir).detect()`` of the same files.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.api import Project
from repro.corpus.apps import corpus_app
from repro.service.client import ServiceClient, ServiceConnectionError
from repro.service.daemon import report_to_json

from common import (
    OUT_DIR, SRC, Tracer, keep_measuring, overhead_layers, peak_rss_mb, ratio,
)
from hostspeed import HostSpeed
from layers import count_instrs

APP = "Docker"
#: share of steps whose reports are checked against a one-shot detect
ORACLE_SHARE = 0.04
#: the daemon's cache grows with every edit, so its peak RSS is read after
#: this many edits (or at the end of a shorter run): equal work in every run
RSS_STEPS = 100
CHANNEL = re.compile(r"make\(chan ([^,()]+?)(?:, *[^)]*)?\)")
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class DaemonError(RuntimeError):
    """The daemon failed to start, died or stopped answering."""


class Daemon:
    """A ``repro serve --port 0`` child whose pipes are always drained."""

    def __init__(self, project: str):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", project, "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._banner: "collections.deque[str]" = collections.deque(maxlen=1)
        self._listening = threading.Event()
        self._stderr: "collections.deque[str]" = collections.deque(maxlen=40)
        self._drains = [
            threading.Thread(target=self._drain_stdout, daemon=True),
            threading.Thread(target=self._drain_stderr, daemon=True),
        ]
        for thread in self._drains:
            thread.start()
        self.client: Optional[ServiceClient] = None
        try:
            if not self._listening.wait(START_TIMEOUT) or not self._banner:
                raise DaemonError(f"daemon did not start{self._status()}")
            port = int(self._banner[0].rsplit(":", 1)[1])
            self.client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT)
        except BaseException:
            self.stop()
            raise

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            if not self._listening.is_set():
                if line.startswith("repro-serve listening on"):
                    self._banner.append(line.strip())
                self._listening.set()
        self._listening.set()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line.rstrip("\n"))

    def _status(self) -> str:
        code = self.proc.poll()
        state = "running" if code is None else f"exited with code {code}"
        tail = "\n".join(self._stderr)
        return f" (daemon {state}){': ' + tail if tail else ''}"

    def call(self, method: str, params: Optional[dict] = None) -> dict:
        try:
            return self.client.call(method, params)
        except (ServiceConnectionError, OSError) as exc:
            raise DaemonError(f"{method} failed: {exc}{self._status()}") from exc

    def peak_rss_mb(self) -> float:
        if self.proc.poll() is not None:
            raise DaemonError(f"daemon died{self._status()}")
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for ``shutdown``, wait for the exit, kill if it hangs."""
        if self.client is not None:
            if self.proc.poll() is None:
                try:
                    self.client.call("shutdown")
                except (ServiceConnectionError, OSError):
                    pass
            self.client.close()
            self.client = None
        elif self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for thread in self._drains:
            thread.join(timeout=5)


def project_files() -> Dict[str, str]:
    """The app split into one file per template instance plus main.go."""
    app = corpus_app(APP)
    files: Dict[str, str] = {}
    calls: List[str] = []
    for k, instance in enumerate(app.instances):
        files[f"inst_{k:03d}.go"] = "package main\n\n" + instance.code.strip("\n") + "\n"
        if instance.driver and not instance.driver.startswith("Test"):
            calls.append(f"\t{instance.driver}()")
    files["main.go"] = "package main\n\nfunc main() {\n" + "\n".join(calls) + "\n}\n"
    return files


def edit(source: str, step: int) -> str:
    """Give the file's first channel the buffer size ``step``."""
    match = CHANNEL.search(source)
    end = source.find("\n", match.end())
    return (
        source[: match.start()]
        + f"make(chan {match.group(1)}, {step})"
        + source[match.end():end]
        + f" // was: {match.group(0)}"
        + source[end:]
    )


@dataclasses.dataclass
class State:
    root: str
    files: Dict[str, str]
    channel_files: List[str]
    edits: random.Random  # picks the file each step edits
    samples: random.Random  # picks the steps checked against a one-shot detect
    daemon: Daemon
    setup_s: float = 0.0
    steps: List[str] = dataclasses.field(default_factory=list)

    def inputs(self) -> dict:
        return {
            "app": APP,
            "files": len(self.files),
            "loc": sum(text.count("\n") for text in self.files.values()),
            "steps": len(self.steps),
        }


def setup(seed: int) -> State:
    files = project_files()
    channel_files = sorted(name for name, text in files.items() if "make(chan" in text)
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    root = tempfile.mkdtemp(prefix="daemon-edit-loop-", dir=OUT_DIR)
    try:
        for name, text in files.items():
            with open(os.path.join(root, name), "w") as handle:
                handle.write(text)
        daemon = Daemon(root)
    except BaseException:
        shutil.rmtree(root, ignore_errors=True)
        raise
    state = State(
        root, files, channel_files,
        edits=random.Random(f"daemon-edit-loop:{seed}"),
        samples=random.Random(f"daemon-edit-loop:{seed}:oracle"),
        daemon=daemon,
    )
    try:
        cold = daemon.call("detect")
        if verdict_problem(cold):
            raise DaemonError(f"cold detect failed: {verdict_problem(cold)}")
    except BaseException:
        close(state)
        raise
    state.setup_s = time.perf_counter() - started
    return state


def close(state: State) -> None:
    try:
        state.daemon.stop()
    finally:
        shutil.rmtree(state.root, ignore_errors=True)


def verdict_problem(response: dict) -> str:
    if "error" in response:
        return f"error response {response['error']}"
    result = response["result"]
    if result.get("health") != "ok":
        return f"health {result.get('health')}"
    if result.get("incidents"):
        return f"{len(result['incidents'])} incident(s)"
    return ""


def canonical(reports: List[dict]) -> List[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in reports)


def one_shot(root: str):
    """Reports of a one-shot detect on the files as they are now."""
    project = Project.from_path(root)
    result = project.detect()
    return canonical([report_to_json(r) for r in result.all_reports()]), project.program


def save_next(state: State) -> Tuple[int, str]:
    """Apply the next step's edit; returns the step number and file."""
    name = state.edits.choice(state.channel_files)
    state.steps.append(name)
    step = len(state.steps)
    with open(os.path.join(state.root, name), "w") as handle:
        handle.write(edit(state.files[name], step))
    return step, name


class Checker:
    """Fails a step on a bad response and, on sampled steps and the final
    state, on reports that differ from a one-shot detect."""

    def __init__(self, state: State):
        self.state = state
        self.problems: List[str] = []
        self.last: Optional[Tuple[int, dict, bool]] = None

    def step(self, step: int, response: dict) -> bool:
        sampled = self.state.samples.random() < ORACLE_SHARE
        problem = verdict_problem(response)
        if not problem and sampled:
            problem = self._compare(response)
        if problem:
            self.problems.append(f"step {step}: {problem}")
        self.last = (step, response, sampled or bool(problem))
        return not problem

    def _compare(self, response: dict) -> str:
        expected, _ = one_shot(self.state.root)
        if canonical(response["result"]["reports"]) != expected:
            return "daemon reports differ from one-shot detect"
        return ""

    def finish(self) -> List[str]:
        step, response, settled = self.last
        if not settled:
            problem = self._compare(response)
            if problem:
                self.problems.append(f"step {step}: {problem}")
        return self.problems


def run(state: State, seconds: float, speed: HostSpeed) -> dict:
    starts: List[float] = []
    latencies: List[float] = []
    checker = Checker(state)
    peak = None
    while keep_measuring(latencies, seconds):
        started = time.perf_counter()
        step, _ = save_next(state)
        response = state.daemon.call("detect")
        latencies.append(time.perf_counter() - started)
        starts.append(started)
        checker.step(step, response)
        if step == RSS_STEPS:
            peak = state.daemon.peak_rss_mb()
        # the daemon idles meanwhile, on the same CPU as this client
        speed.after(latencies[-1])
    if peak is None:
        peak = state.daemon.peak_rss_mb()
    problems = checker.finish()
    return {
        "starts": starts,
        "latencies": latencies,
        "problems": problems,
        "failed": len(problems),
        "peak_rss_mb": peak,
    }


def walk(span: dict, parent: Optional[dict] = None):
    yield span, parent
    for child in span.get("children", ()):
        yield from walk(child, span)


def daemon_spans(stats: dict, trace_ids: set) -> dict:
    """Per-name totals and self times of the loop's request span trees."""
    totals: Dict[str, float] = {}
    own: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for root in stats["spans"]:
        if root.get("trace_id") not in trace_ids:
            continue
        for span, parent in walk(root):
            name = span["name"]
            if name == "engine-shard":
                name = f"engine-shard:{span.get('attrs', {}).get('kind')}"
            elif name == "disentangle" and parent and parent["name"] != "gcatch":
                name = "disentangle:shard"
            children = sum(c["seconds"] for c in span.get("children", ()))
            totals[name] = totals.get(name, 0.0) + span["seconds"]
            own[name] = own.get(name, 0.0) + span["seconds"] - children
            counts[name] = counts.get(name, 0) + 1
    return {"seconds": totals, "self_seconds": own, "count": counts}


def delta(after: dict, before: dict, key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def run_traced(state: State, seconds: float) -> dict:
    """Odd steps send ``refresh`` and then ``detect`` without refresh, so
    the project layer is timed on its own; even steps send the untraced
    ``detect``. The daemon's own stage spans and counters are read over
    the protocol afterwards."""
    daemon = state.daemon
    tracer = Tracer()
    before = daemon.call("metrics")["result"]
    trace_ids = set()
    untraced: List[float] = []
    traced: List[float] = []
    sums = collections.Counter()
    checker = Checker(state)
    while sum(untraced) + sum(traced) < seconds:
        started = time.perf_counter()
        step, name = save_next(state)
        verdict = f"step{step}"
        if step % 2 == 0:
            response = daemon.call("detect")
            untraced.append(time.perf_counter() - started)
            refresh = response.get("result", {}).get("refresh", {})
        else:
            with tracer.span("service.refresh", verdict):
                refreshed = daemon.call("refresh")
            with tracer.span("service.detect", verdict) as span:
                response = daemon.call("detect", {"refresh": False})
            traced.append(time.perf_counter() - started)
            trace_ids.add(refreshed.get("trace_id"))
            if "error" in refreshed:
                response = refreshed
            refresh = refreshed.get("result", {})
            sums["overhead_s"] += span["end"] - span["start"] - response.get(
                "result", {}).get("elapsed_seconds", 0.0)
        trace_ids.add(response.get("trace_id"))
        if not checker.step(step, response):
            continue
        result = response["result"]
        sums["detect_s"] += result["elapsed_seconds"]
        sums["shards"] += result["shards"]["total"]
        sums["executed"] += result["shards"]["executed"]
        sums["cached"] += result["shards"]["cached"]
        sums["reparsed"] += refresh.get("reparsed", 0)
        sums["reparsed_loc"] += state.files[name].count("\n") * refresh.get("reparsed", 0)
    problems = checker.finish()
    after = daemon.call("metrics")["result"]
    stats = daemon.call("stats")["result"]
    _, final_program = one_shot(state.root)
    spans = daemon_spans(stats, trace_ids)
    seconds = spans["seconds"]
    rounds = len(state.steps)
    split = max(1, len(traced))
    counters, old = after["counters"], before["counters"]
    solver_calls = delta(counters, old, "solver.calls")
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    layers = {
        "golang.parse_s": (seconds.get("parse", 0.0) / rounds, spans["count"].get("parse", 0)),
        "golang.kloc_per_s": (
            ratio(sums["reparsed_loc"] / 1000.0, seconds.get("parse", 0.0)), sums["reparsed"]),
        "ssa.build_s": (seconds.get("ssa-build", 0.0) / rounds, spans["count"].get("ssa-build", 0)),
        "ssa.instrs": (count_instrs(final_program), 1),
        "analysis.setup_s": (
            sum(seconds.get(n, 0.0) for n in ("callgraph", "alias", "depgraph", "disentangle"))
            / rounds, spans["count"].get("callgraph", 0)),
        "detector.gcatch_s": (seconds.get("gcatch", 0.0) / rounds, spans["count"].get("gcatch", 0)),
        "detector.channel_s": (
            seconds.get("engine-shard:bmoc", 0.0) / rounds,
            spans["count"].get("engine-shard:bmoc", 0)),
        "detector.traditional_s": (
            seconds.get("engine-shard:traditional", 0.0) / rounds,
            spans["count"].get("engine-shard:traditional", 0)),
        "detector.channels": (delta(counters, old, "detect.channels") / rounds, rounds),
        "detector.combinations": (delta(counters, old, "paths.combinations") / rounds, rounds),
        "detector.groups": (delta(counters, old, "detect.groups") / rounds, rounds),
        "constraints.solver_calls": (solver_calls / rounds, rounds),
        "constraints.sat_share": (
            ratio(delta(counters, old, "solver.sat"), solver_calls), solver_calls),
        "service.request_s": (
            (tracer.total("service.refresh") + tracer.total("service.detect")) / split,
            len(traced)),
        "service.overhead_s": (sums["overhead_s"] / split, len(traced)),
        "service.refresh_s": (tracer.total("service.refresh") / split, len(traced)),
        "service.reparsed_files": (sums["reparsed"] / rounds, rounds),
        "engine.detect_s": (sums["detect_s"] / rounds, rounds),
        "engine.shards": (sums["shards"] / rounds, rounds),
        "engine.shards_executed": (sums["executed"] / rounds, rounds),
        "engine.skip_rate": (ratio(sums["cached"], sums["shards"]), sums["shards"]),
        "engine.cache_hit_share": (ratio(hits, hits + misses), hits + misses),
        "resilience.incidents": (len(after["incidents"]) - len(before["incidents"]), rounds),
    }
    layers.update(overhead_layers(untraced, traced))
    return {
        "layers": layers,
        "problems": problems,
        "failed": len(problems),
        "attempted": rounds,
        "trace": dict(tracer.dump(), daemon_spans=spans),
    }
