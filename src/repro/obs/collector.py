"""Run- and service-scoped tracing and metrics for the GCatch/GFix pipeline.

The paper's evaluation is built on *measured* pipeline behaviour —
per-stage detection time (§5.2), constraint-system sizes before/after
disentangling, solver effort per bug. This module is the substrate those
measurements flow through:

* a :class:`Span` tree records wall-clock timing for each pipeline stage
  (``parse`` → ``ssa-build`` → ... → ``solve``); spans nest, and repeated
  entries of the same stage (one per channel, say) aggregate into a single
  per-stage total. Every span carries a ``span_id``, its ``parent_id`` and
  the ``trace_id`` of the request (or run) it belongs to, so a span tree
  merged from per-shard and per-request collectors keeps its lineage;
* typed counters, gauges and distributions record discrete effort: paths
  enumerated, path combinations, Pset sizes, constraint clause counts,
  solver outcomes, explorer runs/backtracks/prunes, fixer strategy
  attempts, validation samples. Distributions are real: each keeps a
  bounded reservoir and fixed histogram buckets, so p50/p95/p99 come out
  the other end instead of a bare mean;
* one :class:`Collector` is shared by every layer of a run —
  ``api.Project``, ``run_gcatch``, the explorer, the fixer and the patch
  validator all report into it. The analysis daemon shares one collector
  across its lifetime and scopes each request with a fresh trace id.

Observability is off by default: every instrumented call site either
receives :data:`NULL` (a :class:`NullCollector` whose methods are no-ops
and whose truth value is ``False``) or ``collector=None``, so the hot path
pays a single truthiness check. ``benchmarks/test_bench_obs_overhead.py``
asserts the end-to-end cost of the layer stays within 5%.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Pipeline stage names — one per box of the paper's Figure 2 pipeline.
# DESIGN.md maps each to the section of the paper that describes it.
STAGE_PARSE = "parse"
STAGE_SSA = "ssa-build"
STAGE_CALLGRAPH = "callgraph"
STAGE_ALIAS = "alias"
STAGE_DEPGRAPH = "depgraph"
STAGE_DISENTANGLE = "disentangle"
STAGE_PATH_ENUM = "path-enum"
STAGE_SUSPICIOUS = "suspicious-groups"
STAGE_ENCODE = "encode"
STAGE_SOLVE = "solve"

#: one entry per detection-engine shard (a primitive's BMOC analysis or one
#: traditional checker); aggregated like any other stage in the trace table
STAGE_ENGINE_SHARD = "engine-shard"

#: the engine's shard-fingerprinting pass (SSA digests + scope hashing);
#: runs only when a result cache is configured, hence not a pipeline stage
STAGE_FINGERPRINT = "fingerprint"

#: the lock checkers' one lockset pass per detect, inside the first of
#: their shards to run; like fingerprinting, not a Figure 2 box
STAGE_LOCKSETS = "locksets"

#: one entry per request the analysis daemon serves (repro.service); wraps
#: whatever pipeline stages that request triggered
STAGE_SERVICE_REQUEST = "service-request"

#: every GCatch stage, in pipeline order; a full ``Project.detect`` trace
#: contains each of these exactly once in its aggregated stage table
PIPELINE_STAGES: Tuple[str, ...] = (
    STAGE_PARSE,
    STAGE_SSA,
    STAGE_CALLGRAPH,
    STAGE_ALIAS,
    STAGE_DEPGRAPH,
    STAGE_DISENTANGLE,
    STAGE_PATH_ENUM,
    STAGE_SUSPICIOUS,
    STAGE_ENCODE,
    STAGE_SOLVE,
)

# -- identifiers -------------------------------------------------------------

#: process-local monotonically increasing span counter; combined with the
#: pid so ids stay unique across processes (fleet daemons) without the
#: cost of a uuid per span on the hot path
_SPAN_SEQ = itertools.count(1)


def new_span_id() -> str:
    """A 16-hex-char span id, unique within and across processes."""
    return "%08x%08x" % (os.getpid() & 0xFFFFFFFF, next(_SPAN_SEQ) & 0xFFFFFFFF)


def new_trace_id() -> str:
    """A 32-hex-char trace id (one per daemon request / CLI run)."""
    return uuid.uuid4().hex


@dataclass
class Span:
    """One timed region; spans form a tree via ``children``.

    ``span_id``/``parent_id``/``trace_id`` make the lineage explicit so
    trees merged from engine shards and daemon requests keep their place
    in the enclosing tree; ``attrs`` carries evidence pointers (shard
    label, scope fingerprint, outcome) for slow-request exemplars.
    """

    name: str
    start: float = 0.0
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)
    span_id: str = field(default_factory=new_span_id)
    parent_id: Optional[str] = None
    trace_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            return time.perf_counter() - self.start
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def propagate_trace(self, trace_id: Optional[str]) -> None:
        """Stamp this subtree with ``trace_id`` (adoption re-roots it)."""
        if not trace_id:
            return
        for span in self.walk():
            span.trace_id = trace_id

    def reparent(self, parent: "Span") -> None:
        """Attach this span under ``parent``, fixing lineage fields."""
        self.parent_id = parent.span_id
        self.propagate_trace(parent.trace_id)
        parent.children.append(self)

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "seconds": self.seconds,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    # -- context-manager protocol (entered via Collector.span) ------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        pass


# -- distributions -----------------------------------------------------------

#: fixed exponential histogram bounds (``le`` upper edges) shared by every
#: distribution; chosen to resolve both sub-millisecond stage latencies and
#: integer effort counts (Pset sizes, clause counts) without per-metric
#: configuration. The implicit final bucket is +Inf.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: bounded per-distribution sample reservoir backing the percentiles; 256
#: values bound memory while keeping p99 of a few thousand observations
#: honest to within a bucket
RESERVOIR_SIZE = 256


@dataclass
class Dist:
    """A value distribution: count/total/min/max plus a bounded reservoir
    and fixed histogram buckets, so p50/p95/p99 are answerable.

    The reservoir uses Vitter's algorithm R with a fixed-seed RNG, so the
    retained sample — and therefore every reported percentile — is a pure
    function of the observation sequence (determinism is load-bearing:
    fuzz triage and snapshot round-trips are compared byte-for-byte).
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    buckets: List[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_BUCKET_BOUNDS) + 1)
    )
    samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(0x0B5EED)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.buckets[bisect.bisect_left(DEFAULT_BUCKET_BOUNDS, value)] += 1
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < RESERVOIR_SIZE:
                self.samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the reservoir; None when empty."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        index = int(q * (len(ordered) - 1) + 0.5)
        return ordered[index]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(0.99)

    def merge(self, other: "Dist") -> None:
        """Fold another distribution in, deterministically: histogram
        buckets add element-wise; the combined reservoir is an evenly
        strided subsample when it would overflow."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            self.min = bound if self.min is None else min(self.min, bound)
            self.max = bound if self.max is None else max(self.max, bound)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        combined = self.samples + other.samples
        if len(combined) > RESERVOIR_SIZE:
            stride = len(combined) / RESERVOIR_SIZE
            combined = [combined[int(i * stride)] for i in range(RESERVOIR_SIZE)]
        self.samples = combined

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": list(self.buckets),
            "samples": list(self.samples),
        }


class _SpanHandle:
    """Context manager that closes a span and pops the collector's stack."""

    __slots__ = ("_collector", "_span")

    def __init__(self, collector: "Collector", span: Span):
        self._collector = collector
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._collector._close_span(self._span)


class Collector:
    """Aggregates one run's spans, counters, gauges and distributions.

    Counter updates are lock-protected so results funnelled in from many
    explorer-spawned runs (or threads) aggregate safely; the span stack is
    per-instance and assumes the usual single-threaded ``with`` nesting.

    ``trace_id`` scopes the collector to one trace: spans created while no
    span is open inherit it, and spans created inside another span inherit
    the parent's trace — so a daemon-lifetime collector serves many
    requests, each rooted at a ``service-request`` span carrying that
    request's trace id.
    """

    def __init__(self, name: str = "run", trace_id: Optional[str] = None):
        self.name = name
        self.trace_id = trace_id
        self.spans: List[Span] = []  # completed top-level spans, in order
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.dists: Dict[str, Dist] = {}
        self._stack: List[Span] = []
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return True

    # -- spans -------------------------------------------------------------

    def span(
        self, name: str, trace_id: Optional[str] = None, **attrs
    ) -> _SpanHandle:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent_id=parent.span_id if parent is not None else None,
            trace_id=trace_id
            or (parent.trace_id if parent is not None else self.trace_id),
            attrs=attrs,
        )
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        # unwind to the matching span so a leaked inner handle can't corrupt
        # the stack shape
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)

    def adopt_spans(self, spans: Sequence[Span]) -> None:
        """Graft completed span trees (from a sub-collector) into this
        collector *with lineage*: if a span is
        open, the adopted trees become its children and inherit its trace
        id; otherwise they join the top level."""
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            if parent is not None:
                span.reparent(parent)
            else:
                span.propagate_trace(self.trace_id)
                self.spans.append(span)

    def stage_totals(self) -> Dict[str, Tuple[int, float]]:
        """Aggregate the span tree: name -> (times entered, total seconds)."""
        totals: Dict[str, Tuple[int, float]] = {}
        for root in self.spans:
            for span in root.walk():
                count, seconds = totals.get(span.name, (0, 0.0))
                totals[span.name] = (count + 1, seconds + span.seconds)
        return totals

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            dist = self.dists.get(name)
            if dist is None:
                dist = self.dists[name] = Dist()
            dist.add(value)

    # -- aggregation across collectors -------------------------------------

    def merge(self, other: "Collector") -> None:
        """Fold another collector's data into this one: counters add,
        gauges last-write-wins, distributions merge, and span trees are
        *adopted* — grafted under the currently open span (when there is
        one) with parent/trace lineage rewritten, so engine-shard and
        request traces keep their place in the enclosing tree instead of
        merging flat."""
        with self._lock:
            for name, n in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + n
            self.gauges.update(other.gauges)
            for name, dist in other.dists.items():
                mine = self.dists.get(name)
                if mine is None:
                    mine = self.dists[name] = Dist()
                mine.merge(dist)
        self.adopt_spans(other.spans)


class NullCollector(Collector):
    """The default when observability is off: every method is a no-op and
    the instance is falsy, so guarded call sites skip all bookkeeping."""

    _NOOP_SPAN = Span(name="noop", start=0.0, end=0.0)

    def __init__(self):
        super().__init__(name="null")

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, trace_id=None, **attrs) -> Span:  # type: ignore[override]
        return self._NOOP_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def adopt_spans(self, spans: Sequence[Span]) -> None:
        pass

    def merge(self, other: Collector) -> None:
        pass


#: shared no-op collector; ``collector or NULL`` normalizes optional params
NULL = NullCollector()
