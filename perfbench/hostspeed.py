"""Host speed, measured beside the program, to put timings in one scale.

A shared host runs the same work up to 1.9 times slower for minutes at a
time, with the process's CPU time growing as much as its wall time, so
the slowdown is the host's, not the scheduler's. Runs taken minutes apart
then differ by more than any change worth catching. The benchmark therefore
runs a fixed reference kernel beside the program, in the same process and
on the same CPU, and reports each timing divided by the host's slowness at
that moment: the kernel's median time around it over ``KERNEL_REF_S``, its
time on the reference host in a fast phase. Times read as reference-speed
seconds; a change to the program moves them, a change of host phase mostly
does not. The kernel lives here and imports nothing from ``repro``.

The kernel is timed by its thread's CPU time. The host's slowness inflates
that as much as wall time (over one minute in which the kernel took 1.8 to
3.3 ms, wall over CPU time stayed at 1.00), but time the CPU gives to other
processes does not. So work the program leaves running while the kernel
runs, such as a daemon finishing a request after it has answered, cannot
pass for a slow host and make the program's verdicts read faster.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time
from typing import List, Tuple

#: the kernel's time on the reference host (2-vCPU guest, Python 3.11.7)
#: in a fast phase; only sets the scale of the reported times
KERNEL_REF_S = 0.002
#: after each verdict the kernel runs until it has taken this share of the
#: verdict's time (at least once), so samples follow where the time went
KERNEL_SHARE = 0.1
#: a verdict's slowness is the median of the kernel samples this close to
#: its midpoint: the host changes speed from one second to the next, and
#: a wider window blurs the slow verdicts that set the tail
WINDOW_S = 1.0
#: kernel time each process spends right after set-up, to scale ``setup_s``
SETUP_CALIBRATION_S = 0.15


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key: int):
        self.key = key
        self.succ: List["_Node"] = []


def kernel(size: int = 200, roots: int = 40) -> int:
    """A fixed amount of interpreter work shaped like the program's:
    object graphs walked with sets, tuple-keyed dicts, string building.
    Its keys are integers, whose hashes do not change with the process's
    hash seed, so every process runs exactly the same work."""
    nodes = [_Node(i) for i in range(size)]
    for i, node in enumerate(nodes):
        for k in (1, 7, 31):
            node.succ.append(nodes[(i * k + 3) % size])
    reach = 0
    for root in nodes[:roots]:
        seen = {root.key}
        stack = [root]
        while stack:
            for nxt in stack.pop().succ:
                if nxt.key not in seen:
                    seen.add(nxt.key)
                    stack.append(nxt)
        reach += len(seen)
    counts: dict = {}
    for i in range(600):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    text = " ".join(f"w{a}_{b}:{n}" for (a, b), n in sorted(counts.items()))
    return reach + len(text)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so the
    kernel measures the CPU the program runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Kernel samples ``(midpoint, CPU seconds)`` taken during one run; the
    midpoints are ``time.perf_counter()`` readings, like the verdicts'."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def measure(self, budget: float) -> None:
        """Run the kernel at least once and until it has taken ``budget``
        seconds of CPU time. The collector is paused so the program's heap
        does not slow the kernel down."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while True:
                started = time.perf_counter()
                cpu_started = time.thread_time()
                kernel()
                took = time.thread_time() - cpu_started
                self.samples.append(((started + time.perf_counter()) / 2, took))
                spent += took
                if spent >= budget:
                    break
        finally:
            if enabled:
                gc.enable()

    def after(self, verdict_seconds: float) -> None:
        self.measure(KERNEL_SHARE * verdict_seconds)

    def slowness(self) -> float:
        """Median kernel time of every sample, over ``KERNEL_REF_S``."""
        return statistics.median(s for _, s in self.samples) / KERNEL_REF_S

    def slowness_at(self, when: float, times: List[float]) -> float:
        """Median kernel time within ``WINDOW_S`` of ``when``, over
        ``KERNEL_REF_S``; the nearest samples if none is that close.
        ``times`` are the samples' midpoints."""
        lo = bisect.bisect_left(times, when - WINDOW_S)
        hi = bisect.bisect_right(times, when + WINDOW_S)
        if lo == hi:
            at = bisect.bisect_left(times, when)
            lo, hi = max(0, at - 1), min(len(times), at + 1)
        return statistics.median(s for _, s in self.samples[lo:hi]) / KERNEL_REF_S

    def scale(self, starts: List[float], latencies: List[float]) -> List[float]:
        """Each verdict's wall time in reference-speed seconds."""
        times = [t for t, _ in self.samples]
        return [
            seconds / self.slowness_at(start + seconds / 2, times)
            for start, seconds in zip(starts, latencies)
        ]
