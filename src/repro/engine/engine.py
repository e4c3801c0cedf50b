"""The incremental detection engine: the one loop every detect runs.

The paper's disentangling strategy exists so each channel's BMOC analysis
runs in a small, independent scope (its ``Pset``). This engine exploits
that independence three ways:

* **sharding** — each post-disentangle primitive analysis, plus each of
  the five traditional checkers, is one shard; shards run one after
  another in program order and are the unit of caching, budgeting and
  crash isolation (the parity suite checks the reassembled report set
  against the unsharded ``BMOCDetector.detect`` plus the checkers);
* **incrementality** — with a :class:`~repro.engine.cache.ResultCache`,
  each shard is keyed by a content-addressed fingerprint of its analysis
  scope; a warm re-run skips solved primitives entirely, and an edit
  invalidates only the primitives whose scope contains the edited
  function;
* **budgets** — per-primitive wall-clock/solver-node budgets degrade
  gracefully: a shard that exhausts its budget keeps the reports it found,
  is marked TIMEOUT, and the engine continues (the paper's per-package Z3
  timeout discipline).

Shards never run in parallel: on the GIL-bound interpreter a thread or
fork pool was slower than this loop. Whole programs run in parallel
across daemons instead (:mod:`repro.fleet`).

Observability: per-shard ``engine-shard`` spans, a ``fingerprint`` span
around shard fingerprinting (cached runs only), a ``locksets`` span inside
the first lock-checker shard (the lockset pass the four lock checkers
share, counted by ``locksets.functions``), plus the ``cache.hit`` /
``cache.miss`` / ``cache.skipped-solver-calls`` / ``engine.timeout`` /
``engine.shards`` / ``fingerprint.digests`` counters, all through the
run's :mod:`repro.obs` collector. ``cache.hit`` / ``cache.miss`` are the
one count of cache probes: the daemon's ``metrics.cache`` and journal
records read them instead of counting again.

Resilience (:mod:`repro.resilience`): every shard and every cache probe
runs behind an exception firewall — a crash anywhere inside one shard
(path enumeration, encoding, the solver, a traditional checker, an
injected fault) degrades into a structured ``Incident`` and a ``failed``
shard record; every *other* shard's reports are kept. A transient
failure (cache I/O, an injected transient fault) is retried once, as at
every firewall.
The incident ledger lists the cache-probe incidents first, then the
shard and cache-write incidents in shard order, because that is the
order the one loop meets them in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.detector.bmoc import AnalysisBudget, BMOCDetector, DetectionResult, DetectionStats
from repro.detector.reporting import BugReport, dedup_reports
from repro.detector.traditional import TRADITIONAL_CHECKERS, run_checker
from repro.engine.cache import CachedShard, ResultCache
from repro.engine.fingerprint import (
    ProgramDigests,
    channel_fingerprint,
    traditional_fingerprint,
)
from repro.obs import NULL, STAGE_ENGINE_SHARD, STAGE_FINGERPRINT, Collector, Span
from repro.resilience.firewall import Firewall
from repro.ssa import ir


@dataclass
class EngineConfig:
    """The options of one engine run, declared once for every caller
    (``run_gcatch``, ``Project.detect``, the daemon, the CLI)."""

    cache: Optional[ResultCache] = None
    budget_wall_seconds: Optional[float] = None  # per primitive
    budget_solver_nodes: Optional[int] = None  # per primitive, across solves
    disentangle: bool = True


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
    reports: List[BugReport]
    stats: DetectionStats
    seconds: float
    timed_out: bool
    #: the shard's own telemetry; merged only if the shard completes, so a
    #: retried or failed attempt's spans and counters are dropped whole
    collector: Optional[Collector] = None
    failed: bool = False


class DetectionEngine:
    """Runs one program's detection shard by shard, with result caching."""

    def __init__(
        self,
        program: ir.Program,
        config: Optional[EngineConfig] = None,
        collector: Optional[Collector] = None,
    ):
        self.program = program
        self.config = config or EngineConfig()
        self.collector = collector or NULL
        self.firewall = Firewall(collector=self.collector)
        self.detector: Optional[BMOCDetector] = None
        self._channels: List = []
        self._shards: List[ShardInfo] = []

    # -- shard bodies ------------------------------------------------------

    def _make_budget(self) -> Optional[AnalysisBudget]:
        cfg = self.config
        if cfg.budget_wall_seconds is None and cfg.budget_solver_nodes is None:
            return None
        return AnalysisBudget(
            wall_seconds=cfg.budget_wall_seconds,
            solver_nodes=cfg.budget_solver_nodes,
        )

    def _execute_shard(self, index: int) -> _ShardOutcome:
        info = self._shards[index]
        child = Collector(f"shard:{info.label}") if self.collector else None
        start = time.perf_counter()
        stats = DetectionStats()
        with (child or NULL).span(STAGE_ENGINE_SHARD, shard=info.label, kind=info.kind):
            detector = self.detector.for_shard(child or NULL)
            if info.kind == "bmoc":
                channel = self._channels[index]
                stats.channels_analyzed = 1
                reports, timed_out = detector.analyze_channel(
                    channel, stats, self._make_budget()
                )
            else:
                # the clone reports the shared lockset pass, when this shard
                # is the one that runs it, into this shard's collector
                reports = run_checker(info.label, self.program, detector)
                timed_out = False
        return _ShardOutcome(
            reports=reports,
            stats=stats,
            seconds=time.perf_counter() - start,
            timed_out=timed_out,
            collector=child,
        )

    def _execute_guarded(self, index: int) -> _ShardOutcome:
        """One shard behind the firewall: a crash is recorded as an
        incident and becomes a failed outcome."""
        start = time.perf_counter()
        guarded = self.firewall.call(
            lambda: self._execute_shard(index),
            site="shard",
            label=self._shards[index].label,
        )
        if guarded.ok:
            return guarded.value
        return _ShardOutcome(
            reports=[],
            stats=DetectionStats(),
            seconds=time.perf_counter() - start,
            timed_out=False,
            failed=True,
        )

    # -- orchestration -----------------------------------------------------

    def run(self) -> "GCatchResult":
        from repro.detector.gcatch import GCatchResult

        obs = self.collector
        cfg = self.config
        start = time.perf_counter()
        corrupt_before = cfg.cache.corrupt if cfg.cache is not None else 0
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
            cached = self._probe_cache()
            # every shard runs and is merged inside the gcatch span, so the
            # shard span trees graft under it: one rooted tree per detect
            for index, info in enumerate(self._shards):
                outcome = cached.get(index)
                if outcome is None:
                    outcome = self._execute_guarded(index)
                info.seconds = outcome.seconds
                info.reports = len(outcome.reports)
                if outcome.failed:
                    info.outcome = "failed"
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
        self.detector = BMOCDetector(
            self.program, disentangle=self.config.disentangle, collector=self.collector
        )
        self._plan_shards()

    def _aborted_result(self, start: float) -> "GCatchResult":
        from repro.detector.gcatch import GCatchResult

        stats = DetectionStats()
        stats.elapsed_seconds = time.perf_counter() - start
        result = GCatchResult(
            bmoc=DetectionResult(reports=[], stats=stats),
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
        self._shards.extend(
            ShardInfo(kind="traditional", label=name) for name in TRADITIONAL_CHECKERS
        )
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
                    max_loop_unroll=detector.max_loop_unroll,
                    prune_infeasible=detector.prune_infeasible,
                    solver_max_nodes=detector.solver_max_nodes,
                )
            for index in range(len(self._channels), len(self._shards)):
                info = self._shards[index]
                info.fingerprint = traditional_fingerprint(digests, info.label)
        # memo misses only: the digests a service refresh already took of
        # this program are reused here, not recomputed
        obs.count("fingerprint.digests", digests.computed - computed)

    def _probe_cache(self) -> Dict[int, _ShardOutcome]:
        """The cached shards' outcomes, by shard index.

        The one place a cache hit or miss is counted: every probe that
        returns counts one ``cache.hit`` or ``cache.miss``, so a shard
        that misses and then fails keeps its miss.
        """
        cache = self.config.cache
        cached: Dict[int, _ShardOutcome] = {}
        if cache is None:
            return cached
        for index, info in enumerate(self._shards):
            # a crash while probing (cache I/O, injected fault) is an
            # incident, counted as neither hit nor miss: the shard re-runs
            probe = self.firewall.call(
                lambda key=info.fingerprint: cache.get(key),
                site="cache-read",
                label=info.label,
            )
            if not probe.ok:
                continue
            entry = probe.value
            if entry is None:
                self.collector.count("cache.miss")
                continue
            self.collector.count("cache.hit")
            info.outcome = "cached"
            cached[index] = _ShardOutcome(
                reports=entry.reports,
                stats=entry.stats,
                seconds=0.0,
                timed_out=False,
            )
        return cached

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
            obs.count("cache.skipped-solver-calls", outcome.stats.solver_calls)
            return
        obs.observe("engine.shard.seconds", outcome.seconds)
        # merge adopts the shard's span trees under the open gcatch span
        # with lineage intact
        self._annotate_shard_spans(info, outcome.collector.spans)
        obs.merge(outcome.collector)

    def _store_cache(self, info: ShardInfo, outcome: _ShardOutcome) -> None:
        cache = self.config.cache
        if cache is None or info.outcome != "ok":
            return  # only completed shards are cached; timeouts re-run
        entry = CachedShard(reports=outcome.reports, stats=outcome.stats)
        # a failed store (cache I/O, injected fault) is an incident, not an
        # abort: the reports are already in hand, only persistence is lost
        self.firewall.call(
            lambda: cache.put(info.fingerprint, entry),
            site="cache-write",
            label=info.label,
        )

