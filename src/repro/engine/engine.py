"""The parallel, incremental detection engine.

The paper's disentangling strategy exists so each channel's BMOC analysis
runs in a small, independent scope (its ``Pset``). This engine exploits
that independence three ways:

* **sharding** — each post-disentangle primitive analysis, plus each of
  the five traditional checkers, is one shard; shards run across a
  ``concurrent.futures`` pool (``jobs=N``) and results are reassembled in
  program order, so the report set is identical regardless of completion
  order (asserted by the parity suite);
* **incrementality** — with a :class:`~repro.engine.cache.ResultCache`,
  each shard is keyed by a content-addressed fingerprint of its analysis
  scope; a warm re-run skips solved primitives entirely, and an edit
  invalidates only the primitives whose scope contains the edited
  function;
* **budgets** — per-primitive wall-clock/solver-node budgets degrade
  gracefully: a shard that exhausts its budget keeps the reports it found,
  is marked TIMEOUT, and the engine continues (the paper's per-package Z3
  timeout discipline).

Backends: ``thread`` (default) shares the analyzed program in memory and
returns full-fidelity reports; ``process`` forks workers for true CPU
parallelism on multi-core hosts (falling back to threads where ``fork``
is unavailable) at the cost of coarser per-shard traces.

Observability: per-shard ``engine-shard`` spans, a ``fingerprint`` span
around shard fingerprinting (cached runs only), plus the ``cache.hit`` /
``cache.miss`` / ``cache.skipped-solver-calls`` / ``engine.timeout`` /
``engine.shards`` / ``fingerprint.digests`` counters, all through the
run's :mod:`repro.obs` collector.

Resilience (:mod:`repro.resilience`): every shard and every cache probe
runs behind an exception firewall — a crash anywhere inside one shard
(path enumeration, encoding, the solver, a traditional checker, an
injected fault) degrades into a structured ``Incident`` and a ``failed``
shard record; every *other* shard's reports are kept. Transient failures
(cache I/O, fork-pool worker death) retry with deterministic backoff,
and a shard whose budget timed out can optionally retry once with a
smaller per-solve node cap (``retry_timeouts``).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detector.bmoc import AnalysisBudget, BMOCDetector, DetectionResult, DetectionStats
from repro.detector.reporting import BugReport, dedup_reports
from repro.detector.traditional import TRADITIONAL_CHECKERS, run_checker
from repro.engine.cache import CachedShard, ResultCache
from repro.engine.fingerprint import (
    ProgramDigests,
    channel_fingerprint,
    traditional_fingerprint,
)
from repro.obs import (
    NULL,
    STAGE_ENGINE_SHARD,
    STAGE_FINGERPRINT,
    Collector,
    Dist,
    Span,
)
from repro.resilience.firewall import BrokenProcessPool, Firewall, RetryPolicy
from repro.resilience.incidents import Incident, make_incident
from repro.ssa import ir


@dataclass
class EngineConfig:
    """Knobs of one engine run; all have serial-compatible defaults."""

    jobs: int = 1
    backend: str = "thread"  # 'thread' | 'process'
    cache: Optional[ResultCache] = None
    budget_wall_seconds: Optional[float] = None  # per primitive
    budget_solver_nodes: Optional[int] = None  # per primitive, across solves
    solver_max_nodes: Optional[int] = None  # per individual solve
    disentangle: bool = True
    max_loop_unroll: int = 2
    prune_infeasible: bool = True
    # resilience knobs (repro.resilience)
    checkers: Optional[Sequence[str]] = None  # None = all TRADITIONAL_CHECKERS
    max_retries: int = 1  # bounded retries for transient failures
    retry_backoff: float = 0.0  # deterministic backoff base, seconds
    retry_timeouts: bool = False  # retry TIMEOUT shards once, smaller budget


@dataclass
class ShardInfo:
    """Engine-level record of one shard: what ran, how, and at what cost."""

    kind: str  # 'bmoc' | 'traditional'
    label: str  # channel site repr or checker name
    fingerprint: str = ""
    seconds: float = 0.0
    outcome: str = "ok"  # 'ok' | 'timeout' | 'cached' | 'failed'
    reports: int = 0


@dataclass
class _ShardOutcome:
    index: int
    reports: List[BugReport]
    stats: DetectionStats
    seconds: float
    timed_out: bool
    counters: Dict[str, int] = field(default_factory=dict)
    #: span trees serialized as dicts when the outcome crossed a process
    #: boundary (forked worker); lineage is rebuilt on adoption
    spans: List[dict] = field(default_factory=list)
    #: distributions serialized as dicts for the same reason
    dists: Dict[str, dict] = field(default_factory=dict)
    collector: Optional[Collector] = None
    failed: bool = False
    incident: Optional[Incident] = None


# module-level slot a forked worker inherits; see _run_shard_in_worker
_FORKED_ENGINE: Optional["DetectionEngine"] = None


def _run_shard_in_worker(index: int):
    # _execute_guarded, not _execute_shard: a crash inside a forked worker
    # degrades into an Incident that ships back with the outcome instead of
    # poisoning the pool
    outcome = _FORKED_ENGINE._execute_guarded(index)
    # Collector objects hold locks and cannot cross the process boundary;
    # ship the counters, the distributions, and the span trees *as dicts*
    # so the parent can rebuild the exact serial span shape with lineage
    if outcome.collector is not None:
        outcome.counters = dict(outcome.collector.counters)
        outcome.spans = [s.to_dict() for s in outcome.collector.spans]
        outcome.dists = {
            name: dist.to_dict()
            for name, dist in outcome.collector.dists.items()
        }
        outcome.collector = None
    return outcome


class DetectionEngine:
    """Shards one program's detection across a pool, with result caching."""

    def __init__(
        self,
        program: ir.Program,
        config: Optional[EngineConfig] = None,
        collector: Optional[Collector] = None,
    ):
        self.program = program
        self.config = config or EngineConfig()
        self.collector = collector or NULL
        self.firewall = Firewall(
            collector=self.collector,
            policy=RetryPolicy(
                max_retries=self.config.max_retries,
                backoff_base=self.config.retry_backoff,
            ),
        )
        self.detector: Optional[BMOCDetector] = None
        self._channels: List = []
        self._shards: List[ShardInfo] = []

    # -- shard bodies ------------------------------------------------------

    def _make_budget(self) -> Optional[AnalysisBudget]:
        cfg = self.config
        if (
            cfg.budget_wall_seconds is None
            and cfg.budget_solver_nodes is None
            and cfg.solver_max_nodes is None
        ):
            return None
        return AnalysisBudget(
            wall_seconds=cfg.budget_wall_seconds,
            solver_nodes=cfg.budget_solver_nodes,
            max_nodes_per_solve=cfg.solver_max_nodes,
        )

    def _execute_shard(
        self, index: int, budget: Optional[AnalysisBudget] = None
    ) -> _ShardOutcome:
        info = self._shards[index]
        child = Collector(f"shard:{info.label}") if self.collector else None
        start = time.perf_counter()
        stats = DetectionStats()
        with (child or NULL).span(STAGE_ENGINE_SHARD, shard=info.label, kind=info.kind):
            if info.kind == "bmoc":
                detector = self.detector.for_shard(child or NULL)
                channel = self._channels[index]
                stats.channels_analyzed = 1
                reports, timed_out = detector.analyze_channel(
                    channel, stats, budget or self._make_budget()
                )
            else:
                reports = run_checker(info.label, self.program, self.detector)
                timed_out = False
        seconds = time.perf_counter() - start
        if info.kind == "bmoc":
            stats.per_channel_seconds[info.label] = seconds
        return _ShardOutcome(
            index=index,
            reports=reports,
            stats=stats,
            seconds=seconds,
            timed_out=timed_out,
            collector=child,
        )

    def _execute_guarded(self, index: int) -> _ShardOutcome:
        """One shard behind the firewall: a crash becomes a failed outcome
        carrying its incident; the incident is *recorded* (once, in shard
        order) by the reassembly loop, not here — this may run in a forked
        worker whose firewall ledger never returns to the parent."""
        info = self._shards[index]
        start = time.perf_counter()
        guarded = self.firewall.call(
            lambda: self._execute_shard(index),
            site="shard",
            label=info.label,
            record=False,
        )
        if guarded.ok:
            outcome = guarded.value
            if outcome.timed_out and self.config.retry_timeouts:
                outcome = self._retry_with_smaller_budget(index, outcome)
            return outcome
        return _ShardOutcome(
            index=index,
            reports=[],
            stats=DetectionStats(),
            seconds=time.perf_counter() - start,
            timed_out=False,
            failed=True,
            incident=guarded.incident,
        )

    def _retry_with_smaller_budget(
        self, index: int, first: _ShardOutcome
    ) -> _ShardOutcome:
        """The solver-timeout transient path: one re-run with a per-solve
        node cap a quarter of the original, so every solve gives up early
        and the combination sweep itself can complete inside the budget."""
        from repro.constraints.solver import MAX_NODES

        if self._shards[index].kind != "bmoc":
            return first
        cap = (self.config.solver_max_nodes or MAX_NODES) // 4 or 1
        budget = AnalysisBudget(
            wall_seconds=self.config.budget_wall_seconds,
            solver_nodes=self.config.budget_solver_nodes,
            max_nodes_per_solve=cap,
        )
        if self.collector:
            self.collector.count("resilience.retry")
        guarded = self.firewall.call(
            lambda: self._execute_shard(index, budget=budget),
            site="shard",
            label=self._shards[index].label,
            record=False,
        )
        if guarded.ok and not guarded.value.timed_out:
            return guarded.value
        if self.collector:
            self.collector.count("resilience.gave-up")
        return first

    # -- orchestration -----------------------------------------------------

    def run(self) -> "GCatchResult":
        from repro.detector.gcatch import GCatchResult

        obs = self.collector
        cfg = self.config
        start = time.perf_counter()
        corrupt_before = cfg.cache.corrupt if cfg.cache is not None else 0
        evicted_before = cfg.cache.evicted if cfg.cache is not None else 0
        bmoc_reports: List[BugReport] = []
        traditional: List[BugReport] = []
        agg = DetectionStats()
        with obs.span("gcatch"):
            prepared = self.firewall.call(
                self._prepare, site="detect-init", label=self.program.filename or ""
            )
            if not prepared.ok:
                # a pipeline-level crash before sharding: nothing to salvage,
                # but the caller still gets a structured (failed) result
                return self._aborted_result(start)
            cached, pending = self._probe_cache()
            executed = self._execute(pending)
            outcomes: Dict[int, _ShardOutcome] = {}
            outcomes.update(cached)
            outcomes.update(executed)

            # reassembly runs inside the gcatch span so adopted shard span
            # trees (thread pool and forked workers alike) graft under it:
            # one rooted tree per detect, identical in shape to serial
            for index, info in enumerate(self._shards):
                outcome = outcomes[index]
                info.seconds = outcome.seconds
                info.reports = len(outcome.reports)
                if outcome.failed:
                    info.outcome = "failed"
                    if outcome.incident is not None:
                        self.firewall.record(outcome.incident)
                    continue
                if outcome.timed_out:
                    info.outcome = "timeout"
                agg.merge(outcome.stats)
                if info.kind == "bmoc":
                    bmoc_reports.extend(outcome.reports)
                else:
                    traditional.extend(outcome.reports)
                self._record_observability(info, outcome)
                self._store_cache(info, outcome)
        agg.elapsed_seconds = time.perf_counter() - start
        result = GCatchResult(
            bmoc=DetectionResult(reports=dedup_reports(bmoc_reports), stats=agg),
            traditional=dedup_reports(traditional),
            shards=list(self._shards),
            incidents=list(self.firewall.incidents),
        )
        result.elapsed_seconds = agg.elapsed_seconds
        if obs:
            obs.count("engine.shards", len(self._shards))
            obs.count("detect.channels", agg.channels_analyzed)
            obs.count("detect.groups", agg.groups_checked)
            obs.count("detect.reports", len(result.all_reports()))
            if cfg.cache is not None and cfg.cache.corrupt > corrupt_before:
                obs.count("cache.corrupt", cfg.cache.corrupt - corrupt_before)
            if cfg.cache is not None and cfg.cache.evicted > evicted_before:
                obs.count("cache.evict", cfg.cache.evicted - evicted_before)
            result.trace = obs
        return result

    def plan(self) -> List[ShardInfo]:
        """Prepare the shard plan — detector, shard list, fingerprints —
        without executing any shard.

        This is the entry point of the incremental service's invalidation
        step: fingerprinting costs the front half of the pipeline (SSA
        digests, call graph, scopes) but no path enumeration and no solver
        work, so a daemon can ask "which cached results does this edit
        kill?" far cheaper than re-analyzing.
        """
        if self.detector is None:
            self._prepare()
        if self._shards and not self._shards[0].fingerprint:
            self._fingerprint_shards()
        return list(self._shards)

    def _prepare(self) -> None:
        if self.detector is not None:
            return  # already planned (plan() ran first); run() reuses it
        cfg = self.config
        self.detector = BMOCDetector(
            self.program,
            disentangle=cfg.disentangle,
            max_loop_unroll=cfg.max_loop_unroll,
            prune_infeasible=cfg.prune_infeasible,
            collector=self.collector,
            solver_max_nodes=cfg.solver_max_nodes,
        )
        self._plan_shards()

    def _aborted_result(self, start: float) -> "GCatchResult":
        from repro.detector.gcatch import GCatchResult

        stats = DetectionStats()
        stats.elapsed_seconds = time.perf_counter() - start
        result = GCatchResult(
            bmoc=DetectionResult(reports=[], stats=stats),
            traditional=[],
            shards=[],
            incidents=list(self.firewall.incidents),
        )
        result.elapsed_seconds = stats.elapsed_seconds
        if self.collector:
            result.trace = self.collector
        return result

    def _plan_shards(self) -> None:
        self._channels = list(self.detector.channels_to_analyze())
        self._shards = [
            ShardInfo(kind="bmoc", label=str(channel.site))
            for channel in self._channels
        ]
        # an unknown checker name (config/env typo) still gets a shard: it
        # fails inside the firewall and degrades the run instead of
        # aborting it, and its incident message names the valid set
        names = self.config.checkers
        names = list(TRADITIONAL_CHECKERS) if names is None else list(names)
        self._shards.extend(ShardInfo(kind="traditional", label=name) for name in names)
        if self.config.cache is not None:
            self._fingerprint_shards()

    def _fingerprint_shards(self) -> None:
        cfg = self.config
        obs = self.collector
        detector = self.detector
        digests = ProgramDigests.of_program(self.program)
        computed = digests.computed
        with obs.span(STAGE_FINGERPRINT):
            for index, channel in enumerate(self._channels):
                if cfg.disentangle:
                    # the detector's Pset memo: computed once, shared with the
                    # analysis itself instead of re-derived for fingerprinting
                    pset = detector.pset_of(channel)
                    scope_functions = detector.scopes[channel].functions
                else:
                    pset = [p for p in detector.pmap if p.site.kind != "ctxdone"]
                    scope_functions = set(self.program.functions)
                self._shards[index].fingerprint = channel_fingerprint(
                    digests,
                    channel,
                    pset,
                    scope_functions,
                    disentangle=cfg.disentangle,
                    max_loop_unroll=cfg.max_loop_unroll,
                    prune_infeasible=cfg.prune_infeasible,
                    solver_max_nodes=cfg.solver_max_nodes,
                )
            for index in range(len(self._channels), len(self._shards)):
                info = self._shards[index]
                info.fingerprint = traditional_fingerprint(digests, info.label)
        # memo misses only: the digests a service refresh already took of
        # this program are reused here, not recomputed
        obs.count("fingerprint.digests", digests.computed - computed)

    def _probe_cache(self) -> Tuple[Dict[int, _ShardOutcome], List[int]]:
        cache = self.config.cache
        cached: Dict[int, _ShardOutcome] = {}
        pending: List[int] = []
        for index, info in enumerate(self._shards):
            entry = None
            if cache is not None:
                # a crash while probing (cache I/O, injected fault) is an
                # incident and an ordinary miss: the shard simply re-runs
                probe = self.firewall.call(
                    lambda key=info.fingerprint: cache.get(key),
                    site="cache-read",
                    label=info.label,
                )
                entry = probe.value if probe.ok else None
            if entry is None:
                pending.append(index)
                continue
            info.outcome = "cached"
            cached[index] = _ShardOutcome(
                index=index,
                reports=entry.reports,
                stats=entry.stats,
                seconds=0.0,
                timed_out=False,
                counters=dict(entry.counters),
            )
        return cached, pending

    def _execute(self, pending: List[int]) -> Dict[int, _ShardOutcome]:
        jobs = max(1, self.config.jobs)
        if jobs == 1 or len(pending) <= 1:
            return {i: self._execute_guarded(i) for i in pending}
        backend = self.config.backend
        if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
            backend = "thread"
        if backend == "process":
            return self._execute_process(pending, jobs)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(self._execute_guarded, pending))
        return {o.index: o for o in outcomes}

    def _execute_process(self, pending: List[int], jobs: int) -> Dict[int, _ShardOutcome]:
        """Fork-pool execution with the worker-death transient path: a
        broken pool is retried (fresh pool, bounded by ``max_retries``),
        then degrades to guarded in-process execution — shard results are
        never lost to pool mechanics."""
        global _FORKED_ENGINE
        context = multiprocessing.get_context("fork")
        attempts = 0
        while attempts <= max(0, self.config.max_retries):
            _FORKED_ENGINE = self
            try:
                with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                    outcomes = list(pool.map(_run_shard_in_worker, pending))
                return {o.index: o for o in outcomes}
            except BrokenProcessPool as exc:
                attempts += 1
                if self.collector:
                    self.collector.count("resilience.retry")
                broken = exc
            finally:
                _FORKED_ENGINE = None
        self.firewall.record(
            make_incident("pool", "process-pool", broken, attempts=attempts, transient=True)
        )
        if self.collector:
            self.collector.count("resilience.gave-up")
        return {i: self._execute_guarded(i) for i in pending}

    # -- result assembly ---------------------------------------------------

    def _annotate_shard_spans(self, info: ShardInfo, spans: List[Span]) -> None:
        """Evidence pointers on the shard's root span: which shard, its
        scope fingerprint (cache lineage) and how it ended — the fields a
        slow-request exemplar needs to be replayable after the fact."""
        for span in spans:
            if span.name != STAGE_ENGINE_SHARD:
                continue
            span.attrs.setdefault("shard", info.label)
            span.attrs.setdefault("kind", info.kind)
            span.attrs["outcome"] = info.outcome
            if info.fingerprint:
                span.attrs.setdefault("fingerprint", info.fingerprint)

    def _record_observability(self, info: ShardInfo, outcome: _ShardOutcome) -> None:
        obs = self.collector
        if not obs:
            return
        if info.outcome == "cached":
            obs.count("cache.hit")
            obs.count("cache.skipped-solver-calls", outcome.stats.solver_calls)
            return
        if self.config.cache is not None:
            obs.count("cache.miss")
        obs.observe("engine.shard.seconds", outcome.seconds)
        if outcome.collector is not None:
            # in-process shard (serial or thread pool): merge adopts the
            # span trees under the open gcatch span with lineage intact
            self._annotate_shard_spans(info, outcome.collector.spans)
            obs.merge(outcome.collector)
            return
        # a forked worker: replay counters and distributions, rebuild the
        # shipped span trees (same shape as serial) and adopt them
        for name, n in outcome.counters.items():
            obs.count(name, n)
        for name, payload in outcome.dists.items():
            shipped = Dist.from_dict(payload)
            with obs._lock:
                mine = obs.dists.get(name)
                if mine is None:
                    mine = obs.dists[name] = Dist()
                mine.merge(shipped)
        if outcome.spans:
            spans = [Span.from_dict(s) for s in outcome.spans]
        else:
            spans = [Span(name=STAGE_ENGINE_SHARD, start=0.0, end=outcome.seconds)]
        self._annotate_shard_spans(info, spans)
        obs.adopt_spans(spans)

    def _store_cache(self, info: ShardInfo, outcome: _ShardOutcome) -> None:
        cache = self.config.cache
        if cache is None or info.outcome != "ok":
            return  # only completed shards are cached; timeouts re-run
        counters = (
            dict(outcome.collector.counters)
            if outcome.collector is not None
            else dict(outcome.counters)
        )
        entry = CachedShard(
            reports=outcome.reports, stats=outcome.stats, counters=counters
        )
        # a failed store (cache I/O, injected fault) is an incident, not an
        # abort: the reports are already in hand, only persistence is lost
        self.firewall.call(
            lambda: cache.put(info.fingerprint, entry),
            site="cache-write",
            label=info.label,
        )


def run_engine(
    program: ir.Program,
    config: Optional[EngineConfig] = None,
    collector: Optional[Collector] = None,
) -> "GCatchResult":
    """Convenience wrapper: one engine run over a lowered program."""
    return DetectionEngine(program, config=config, collector=collector).run()
