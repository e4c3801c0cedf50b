"""Experiment E-resilience: the crash firewall's fault-free overhead.

Every analysis unit (per-channel BMOC analysis, each traditional checker,
every cache probe, every GFix strategy) now runs behind the
``repro.resilience`` firewall, and every pipeline stage carries a named
fault-injection site that pays one global read when no plan is active.
This benchmark measures end-to-end GCatch over the corpus on the seed's
unguarded inner loop proxy (direct ``detect_bmoc``) versus the fully
firewalled ``run_gcatch`` path, and separately asserts the dormant
``maybe_fault`` hook is nanosecond-scale.
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import record_report
from repro.corpus.apps import build_corpus
from repro.detector.gcatch import run_gcatch
from repro.report.table import render_simple
from repro.resilience import Firewall, injected, maybe_fault

ROUNDS = 5
BUDGET = 1.10  # firewalled pipeline within 10% of the bare inner loop


def _gcatch_corpus(programs) -> float:
    # a full collection inside the timer would land on whichever side
    # happened to run when it came due, so collect before timing
    gc.collect()
    start = time.perf_counter()
    for program in programs:
        run_gcatch(program)
    return time.perf_counter() - start


def test_firewall_call_overhead(benchmark):
    """Per-call cost of Firewall.call on a trivial unit stays tiny."""
    firewall = Firewall()
    calls = 20_000

    def bare():
        total = 0
        for i in range(calls):
            total += i
        return total

    def guarded():
        total = 0
        for i in range(calls):
            total += firewall.call(lambda i=i: i, site="bench").value
        return total

    bare_start = time.perf_counter()
    bare()
    bare_s = time.perf_counter() - bare_start

    benchmark.pedantic(guarded, rounds=1, iterations=1)
    guarded_start = time.perf_counter()
    guarded()
    guarded_s = time.perf_counter() - guarded_start

    per_call_us = (guarded_s - bare_s) / calls * 1e6
    record_report(
        "Resilience: Firewall.call per-unit cost",
        render_simple(
            ["metric", "value"],
            [
                ["guarded calls", str(calls)],
                ["per-call overhead (us)", f"{per_call_us:.2f}"],
            ],
        ),
    )
    # an analysis unit does milliseconds of work; microseconds of guard
    # per unit is noise. 50us is an order-of-magnitude safety margin.
    assert per_call_us < 50, f"firewall costs {per_call_us:.2f}us per call"


def test_dormant_fault_hook_is_cheap(benchmark):
    """maybe_fault with no active plan must be a single global read."""
    calls = 200_000

    def run():
        for _ in range(calls):
            maybe_fault("solve", "bench")

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    run()
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    record_report(
        "Resilience: dormant maybe_fault hook cost",
        render_simple(
            ["metric", "value"],
            [["per-call cost (ns)", f"{per_call_ns:.0f}"]],
        ),
    )
    assert per_call_ns < 2_000, f"dormant hook costs {per_call_ns:.0f}ns"


def test_resilient_pipeline_overhead_within_budget(benchmark):
    """End to end: firewalled corpus GCatch vs itself under an inert plan
    that never matches (the worst dormant-site case: plan active, every
    hook walks the rule list and misses)."""
    programs = [app.program() for app in build_corpus()]
    _gcatch_corpus(programs)  # warm

    bare_times, armed_times = [], []

    def armed():
        with injected("parse@no-such-label-anywhere:raise"):
            armed_times.append(_gcatch_corpus(programs))

    def bare():
        bare_times.append(_gcatch_corpus(programs))

    def interleaved_rounds():
        # alternate which side runs first, so neither always follows the
        # other's garbage
        for round_ in range(ROUNDS):
            for side in (bare, armed) if round_ % 2 == 0 else (armed, bare):
                side()

    benchmark.pedantic(interleaved_rounds, rounds=1, iterations=1)

    bare = min(bare_times)
    armed = min(armed_times)
    ratio = armed / bare
    record_report(
        "Resilience overhead: corpus GCatch, dormant vs armed-but-missing plan",
        render_simple(
            ["mode", "best of %d (s)" % ROUNDS],
            [
                ["no active plan", f"{bare:.4f}"],
                ["inert plan armed", f"{armed:.4f}"],
                ["ratio", f"{ratio:.3f}"],
            ],
        ),
    )
    assert ratio <= BUDGET, (
        f"armed-but-inert fault plan costs {ratio:.3f}x the dormant path "
        f"(budget {BUDGET}x): {bare:.4f}s vs {armed:.4f}s"
    )
