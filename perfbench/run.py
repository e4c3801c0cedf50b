"""The repository's benchmark: GCatch/GFix end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-corpus [--seed 0] [--seconds 30] [--trace 0]

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``table1-corpus``    — ``evaluate_app`` over the 21-app Table 1 corpus;
* ``fuzz-campaign``    — ``triage_program`` over generated programs;
* ``daemon-edit-loop`` — edit-then-``detect`` against a warm ``repro serve``.

``--seed`` (default 0) sets the corpus pass order, the order the fuzz
programs are triaged in and the daemon's edit sequence. ``--seconds``
(default 30) is how long a run measures: it repeats whole rounds (a corpus
pass, a pass over the fuzz programs, one daemon edit) until its verdicts
have taken that long, and an untraced run until it has at least
``common.MIN_VERDICTS`` of them; whole rounds keep the mix of inputs fixed.

Every run is a fresh worker process (``worker.py``); the program's
settings are its defaults, and ``REPRO_*`` variables are removed from the
worker's environment. With ``--trace 0`` the run starts the measured
worker between ``SETUP_PROBES`` set-up-only workers, half before and half
after, and prints the end-to-end metrics; ``setup_s`` is the median set-up
time of all of them. End-to-end times are in reference-speed seconds: each
is divided by the host's slowness at that moment, measured by a fixed
kernel run beside the program on the same CPU (``hostspeed.py``); the
wall-clock values are printed and recorded next to them. With
``--trace 1`` one worker runs every verdict both untraced and as separately
traced layer calls, checks that both agree, and prints the per-layer
metrics (wall clock). Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a full
record with provenance goes to ``.bench_out/``. The exit code is 0 when
every verdict was correct, 1 when one was not, and 2 when the run could
not be made (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import common
import hostspeed
from worker import MODULES

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 4
#: a run, probes included, must end well inside three minutes
DEADLINE_SECONDS = 170.0


class RunFailed(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker in its own process group and read its result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [
        sys.executable, os.path.join(common.HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--launched-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=common.ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed("worker ran past the deadline and was killed")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list, latencies: str = "latencies") -> dict:
    """The end-to-end metrics from a worker's verdict times and the set-up
    times of every worker of the run, both in seconds."""
    seconds = result[latencies]
    millis = sorted(1000.0 * s for s in seconds)
    p90 = common.percentile(millis, 90)
    return {
        "verdicts_per_s": (len(seconds) / sum(seconds), len(seconds)),
        "verdict_p50_ms": (common.percentile(millis, 50), len(millis)),
        "verdict_p90_ms": (p90, f"{len(millis)}, {sum(1 for m in millis if m > p90)} beyond"),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def scaled_setup(result: dict) -> float:
    """A worker's set-up time in reference-speed seconds."""
    return result["setup_s"] / result["setup_slowness"]


def per_layer(result: dict) -> dict:
    return {
        name: tuple(result["layers"].get(name, (0.0, 0)))
        for name in common.LAYER_METRICS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_source_tree()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so spawn() still kills the worker's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        if args.trace:
            result = spawn(args, deadline)
            metrics = per_layer(result)
            units = common.LAYER_METRICS
            attempted = result["attempted"]
        else:
            workers = [
                spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES // 2)
            ]
            result = spawn(args, deadline)
            workers.append(result)
            workers += [
                spawn(args, deadline, setup_only=True)
                for _ in range(SETUP_PROBES - SETUP_PROBES // 2)
            ]
            setups = [scaled_setup(w) for w in workers]
            metrics = end_to_end(result, setups)
            wall = end_to_end(result, [w["setup_s"] for w in workers], "wall_latencies")
            units = END_TO_END
            attempted = len(result["latencies"])
    except RunFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2

    record = {
        "provenance": common.provenance(args.workload, args.seed, result["inputs"]),
        "trace": args.trace,
        "attempted": attempted,
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": {
            name: {"value": value, "unit": units[name], "n": n}
            for name, (value, n) in metrics.items()
        },
    }
    for key in ("buckets", "spans_file"):
        if key in result:
            record[key] = result[key]
    if not args.trace:
        record["wall_metrics"] = {name: value for name, (value, _) in wall.items()}
        record["slowness"] = {
            "run": result["slowness"],
            "setup": [w["setup_slowness"] for w in workers],
        }
        record["setup_samples_s"] = setups
        record["wall_setup_samples_s"] = [w["setup_s"] for w in workers]
        record["latencies_ms"] = [1000.0 * s for s in result["latencies"]]
        record["wall_latencies_ms"] = [1000.0 * s for s in result["wall_latencies"]]
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(
        common.OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    prov = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={prov['nproc']} python={prov['python']} "
          f"commit={prov['git_commit']} src={prov['source_digest']}")
    print("inputs: " + " ".join(f"{k}={v}" for k, v in prov["inputs"].items()))
    print(f"verdicts: attempted={attempted} failed={result['failed']}")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    if not args.trace:
        print(f"host slowness (kernel time / {hostspeed.KERNEL_REF_S * 1000:g} ms): "
              f"run {result['slowness']:.3f}, set-ups "
              + " ".join(f"{w['setup_slowness']:.3f}" for w in workers))
    for name, entry in record["metrics"].items():
        extra = f"  wall clock {record['wall_metrics'][name]:.6g}" if not args.trace else ""
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']:7s} n={entry['n']}{extra}")
    print(f"record: {os.path.relpath(path, common.ROOT)}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
