"""Cache-invalidation matrix for the engine's content-addressed result cache.

The fingerprint of a BMOC shard covers exactly the functions reachable in
that primitive's Pset scope, so:

* editing code inside one primitive's scope re-analyzes that primitive and
  nothing else;
* editing a function with no primitives keeps every BMOC shard warm;
* bumping the encoder (or solver/engine) version invalidates everything.

Edits below are in-place and line-count-preserving on purpose: fingerprints
are deliberately line-sensitive (reports carry line numbers), so a valid
"unrelated" edit must not shift any other function's lines.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

from repro.constraints import encoding
from repro.detector.gcatch import run_gcatch
from repro.engine import EngineConfig, ResultCache
from repro.engine.fingerprint import ProgramDigests, function_digest
from repro.obs import Collector
from tests.conftest import build

BASE = """
func alpha() {
	a := make(chan int)
	go func() {
		a <- 1
	}()
	println("alpha never receives")
}

func beta() {
	b := make(chan int)
	go func() {
		b <- 2
	}()
	<-b
}

func gamma() {
	println("no primitives here")
}
"""

# same line count, edit confined to alpha's goroutine closure (channel a's scope)
EDIT_IN_ALPHA = BASE.replace("a <- 1", "a <- 9")

# same line count, edit confined to gamma (outside every primitive's scope)
EDIT_IN_GAMMA = BASE.replace(
    'println("no primitives here")', 'println("still no primitives")'
)


def bmoc_shards(result):
    """Per-channel shards only.

    Traditional-checker shards fingerprint the whole program by design (any
    edit invalidates them), so the scoped-invalidation claims are about the
    ``kind == "bmoc"`` shards.
    """
    return [s for s in result.shards if s.kind == "bmoc"]


def run(source, cache, collector=None):
    return run_gcatch(build(source), EngineConfig(cache=cache), collector=collector)


class TestScopedInvalidation:
    def test_warm_identical_source_hits_every_bmoc_shard(self):
        cache = ResultCache()
        run(BASE, cache)
        warm = run(BASE, cache)
        assert all(s.outcome == "cached" for s in bmoc_shards(warm))

    def test_in_scope_edit_invalidates_exactly_that_primitive(self):
        cache = ResultCache()
        cold = run(BASE, cache)
        assert len(bmoc_shards(cold)) == 2  # channels a and b
        edited = run(EDIT_IN_ALPHA, cache)
        by_label = {s.label: s.outcome for s in bmoc_shards(edited)}
        stale = [label for label, outcome in by_label.items() if outcome != "cached"]
        assert len(stale) == 1
        assert "alpha" in stale[0]  # only channel a's shard re-ran
        fresh = [label for label, outcome in by_label.items() if outcome == "cached"]
        assert len(fresh) == 1 and "beta" in fresh[0]

    def test_unrelated_edit_is_a_full_bmoc_cache_hit(self):
        cache = ResultCache()
        run(BASE, cache)
        collector = Collector("unrelated-edit")
        edited = run(EDIT_IN_GAMMA, cache, collector)
        shards = bmoc_shards(edited)
        assert all(s.outcome == "cached" for s in shards)
        assert collector.counters["cache.hit"] >= len(shards)
        # no solver work happened for the channels
        assert collector.counters.get("solver.calls", 0) == 0

    def test_reanalyzed_primitive_reports_reflect_the_edit(self):
        # sanity: the invalidated shard's fresh analysis is used, not stale
        cache = ResultCache()
        cold = run(BASE, cache)
        edited = run(EDIT_IN_ALPHA, cache)
        assert sorted(r.identity() for r in edited.all_reports()) == sorted(
            r.identity() for r in run_gcatch(build(EDIT_IN_ALPHA)).all_reports()
        )
        # still the same bug count as before the value tweak
        assert len(edited.all_reports()) == len(cold.all_reports())


class TestVersionInvalidation:
    def test_encoder_version_bump_invalidates_everything(self, monkeypatch):
        cache = ResultCache()
        run(BASE, cache)
        monkeypatch.setattr(encoding, "ENCODER_VERSION", "test-bump")
        collector = Collector("encoder-bump")
        rerun = run(BASE, cache, collector)
        assert all(s.outcome != "cached" for s in rerun.shards)
        assert collector.counters.get("cache.hit", 0) == 0
        assert collector.counters["cache.miss"] == len(rerun.shards)

    def test_solver_version_bump_invalidates_everything(self, monkeypatch):
        from repro.constraints import solver

        cache = ResultCache()
        run(BASE, cache)
        monkeypatch.setattr(solver, "SOLVER_VERSION", "test-bump")
        rerun = run(BASE, cache)
        assert all(s.outcome != "cached" for s in rerun.shards)

    def test_engine_version_bump_invalidates_everything(self, monkeypatch):
        from repro.engine import fingerprint

        cache = ResultCache()
        run(BASE, cache)
        monkeypatch.setattr(fingerprint, "ENGINE_VERSION", "test-bump")
        rerun = run(BASE, cache)
        assert all(s.outcome != "cached" for s in rerun.shards)


class TestOptionSensitivity:
    def test_analysis_options_key_the_cache(self):
        # disentangle on/off analyzes different scopes; entries must not collide
        cache = ResultCache()
        with_dis = run_gcatch(build(BASE), EngineConfig(cache=cache, disentangle=True))
        without = run_gcatch(build(BASE), EngineConfig(cache=cache, disentangle=False))
        assert all(s.outcome != "cached" for s in bmoc_shards(without))
        assert sorted(r.identity() for r in without.all_reports()) == sorted(
            r.identity() for r in run_gcatch(build(BASE), EngineConfig(disentangle=False)).all_reports()
        )
        assert with_dis is not without


class TestFingerprintPrimitives:
    def test_function_digest_stable_across_rebuilds(self):
        first = build(BASE)
        second = build(BASE)
        assert sorted(first.functions) == sorted(second.functions)
        for name in first.functions:
            assert function_digest(first.functions[name]) == function_digest(
                second.functions[name]
            )

    def test_function_digest_changes_on_body_edit(self):
        base = build(BASE)
        edited = build(EDIT_IN_ALPHA)
        changed = [
            name
            for name, fn in base.functions.items()
            if function_digest(fn) != function_digest(edited.functions[name])
        ]
        # only the closure carrying `a <- 1` differs
        assert len(changed) == 1 and changed[0].startswith("alpha")

    def test_program_digests_memoizes(self):
        program = build(BASE)
        digests = ProgramDigests(program)
        name = next(iter(program.functions))
        assert digests.of(name) == digests.of(name)
        assert digests.of(name) == function_digest(program.functions[name])

    def test_one_shared_memo_per_program_held_weakly(self):
        program, other = build(BASE), build(BASE)
        digests = ProgramDigests.of_program(program)
        assert ProgramDigests.of_program(program) is digests
        assert ProgramDigests.of_program(other) is not digests
        alive = weakref.ref(program)
        del program, digests
        gc.collect()
        assert alive() is None  # the memo does not keep its program alive

    def test_concurrent_misses_count_each_function_once(self):
        program = build(
            "".join(f"\nfunc f{i}() {{\n\tprintln({i})\n}}\n" for i in range(300))
        )
        digests = ProgramDigests.of_program(program)
        start = threading.Barrier(8)

        def digest_all():
            start.wait(timeout=10)
            for name in program.functions:
                digests.of(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=digest_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests.computed == len(program.functions)
        for name, fn in program.functions.items():
            assert digests.of(name) == function_digest(fn)


class TestDiskEviction:
    """The disk tier is unbounded: nothing is ever evicted, every put
    leaves its own ``.pkl`` object behind."""

    def test_unbounded_by_default(self, tmp_path):
        from repro.engine import CachedShard

        cache = ResultCache(str(tmp_path))
        for i in range(6):
            cache.put(f"{i:02d}" + "a" * 62, CachedShard(reports=[]))
        assert len(list(tmp_path.glob("objects/*/*.pkl"))) == 6
