"""One fresh measured process of the benchmark (started by ``run.py``).

It keeps itself, and the daemon it may start, on one CPU, imports the
program, generates the workload's inputs from the seed and notes when it
was ready: that is its set-up time, counted from ``--launched-at`` (a
``time.monotonic()`` reading the parent took just before starting it; the
clock is shared by every process on Linux). An untraced worker then runs
the host-speed kernel for a moment (``hostspeed``), which scales the
set-up time; with ``--setup-only`` it stops there. Otherwise it runs the
timed loop, with the kernel after every verdict, or the traced run with
``--trace 1``, and prints one JSON line as its last line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

import common
import hostspeed

MODULES = {
    "table1-corpus": "table1_corpus",
    "fuzz-campaign": "fuzz_campaign",
    "daemon-edit-loop": "daemon_edit_loop",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hostspeed.pin_to_one_cpu()
    common.use_source_tree()
    module = importlib.import_module(MODULES[args.workload])
    state = module.setup(args.seed)
    ready = time.monotonic() - args.launched_at
    # the daemon workload times its own set-up: project, spawn, cold detect
    setup_s = getattr(state, "setup_s", ready)
    speed = hostspeed.HostSpeed()
    try:
        if args.trace:
            result = {} if args.setup_only else module.run_traced(state, args.seconds)
        else:
            speed.measure(hostspeed.SETUP_CALIBRATION_S)
            result = {"setup_slowness": speed.slowness()}
            if not args.setup_only:
                result.update(module.run(state, args.seconds, speed))
                result.setdefault("peak_rss_mb", common.peak_rss_mb())
                result["wall_latencies"] = result["latencies"]
                result["latencies"] = speed.scale(result.pop("starts"), result["latencies"])
                result["slowness"] = speed.slowness()
    finally:
        module.close(state)
    trace = result.pop("trace", None)
    if trace is not None:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        path = os.path.join(common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(trace, handle)
        result["spans_file"] = os.path.relpath(path, common.ROOT)
    result["setup_s"] = setup_s
    result["inputs"] = state.inputs()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
