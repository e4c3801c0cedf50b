"""Incremental re-analysis correctness: the daemon must never trade
away one-shot fidelity.

The acceptance bar, corpus-wide: for every bugset case, the resident
daemon's reports are byte-identical to a cold one-shot run —

* on the first (cold) daemon request,
* after a no-op touch (mtime changed, bytes unchanged),
* after an edit **and revert** (content back to the original, answered
  from the content-addressed cache with zero solver work).

Plus the economics that make the daemon worth running: editing one file
of a many-file project re-solves only that file's shard — ≥90% of the
solver work answers warm, measured by the engine's own counters.
"""

import os

import pytest

from repro.api import Project
from repro.corpus.bugset import build_bug_set
from repro.service import AnalysisService

CASES = build_bug_set()

#: a harmless trailing declaration: changes file bytes and the function
#: set without touching any existing function's SSA digest
PROBE = "\nfunc __probe() {\n\tprintln(0)\n}\n"


def renders(result) -> list:
    return sorted(r.render() for r in result.all_reports())


def daemon_renders(payload: dict) -> list:
    return sorted(r["render"] for r in payload["reports"])


def ok(response):
    assert "error" not in response, response
    return response["result"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.case_id)
def test_daemon_parity_with_cold_one_shot(case, tmp_path):
    """cold == daemon == daemon-after-touch == daemon-after-edit-and-revert."""
    path = tmp_path / f"{case.case_id}.go"
    path.write_text(case.source)
    cold = renders(Project.from_path(str(path)).detect())

    service = AnalysisService(str(path)).start()
    try:
        first = ok(service.call("detect"))
        assert daemon_renders(first) == cold

        # no-op touch: new mtime, same bytes — nothing re-parses, every
        # shard answers warm
        os.utime(path, None)
        touched = ok(service.call("detect"))
        assert touched["refresh"]["noop"] is True
        assert touched["shards"]["skip_rate"] == 1.0
        assert daemon_renders(touched) == cold

        # edit (adds a function) ... the intermediate result must at
        # least keep every original report
        path.write_text(case.source + PROBE)
        edited = ok(service.call("detect"))
        assert edited["refresh"]["noop"] is False
        assert set(cold) <= set(daemon_renders(edited))

        # ... and revert: content-addressed fingerprints return to their
        # original values, so the answer comes from cache, byte-identical
        path.write_text(case.source)
        reverted = ok(service.call("detect"))
        assert daemon_renders(reverted) == cold
        assert reverted["shards"]["skip_rate"] == 1.0
    finally:
        service.stop()


LEAKY = """package main

func {name}() {{
\tch := make(chan int)
\tgo func() {{
\t\tch <- 1
\t}}()
}}
"""

FIXED = """package main

func {name}() {{
\tch := make(chan int, 1)
\tgo func() {{
\t\tch <- 1
\t}}()
}}
"""


class TestSolverSkipRate:
    """Editing 1 of N files re-solves ~1/N of the shard plan."""

    N_FILES = 12

    def _project(self, tmp_path):
        root = tmp_path / "many"
        root.mkdir()
        for i in range(self.N_FILES):
            (root / f"part{i:02d}.go").write_text(LEAKY.format(name=f"leak{i:02d}"))
        return root

    def _counters(self, service) -> dict:
        return ok(service.call("metrics"))["counters"]

    def test_edit_one_file_keeps_solver_mostly_warm(self, tmp_path):
        root = self._project(tmp_path)
        service = AnalysisService(str(root)).start()
        try:
            first = ok(service.call("detect"))
            assert len(first["reports"]) == self.N_FILES
            assert first["shards"]["total"] >= self.N_FILES
            before = self._counters(service)
            assert before.get("solver.calls", 0) > 0

            # fix exactly one file's bug
            (root / "part07.go").write_text(FIXED.format(name="leak07"))
            second = ok(service.call("detect"))
            assert len(second["reports"]) == self.N_FILES - 1
            assert second["refresh"]["reparsed"] == 1

            after = self._counters(service)
            solved = after.get("solver.calls", 0) - before.get("solver.calls", 0)
            skipped = after.get("cache.skipped-solver-calls", 0) - before.get(
                "cache.skipped-solver-calls", 0
            )
            assert solved > 0  # the edited shard really re-ran
            skip_rate = skipped / (skipped + solved)
            assert skip_rate >= 0.9, (
                f"incremental solver skip {skip_rate:.0%} "
                f"({skipped} skipped vs {solved} solved)"
            )
            # exactly the untouched per-primitive shards hit the cache
            hits = after.get("cache.hit", 0) - before.get("cache.hit", 0)
            assert hits == self.N_FILES - 1
            # the delta names the one invalidated primitive shard
            invalidated = second["delta"]["invalidated"]
            assert any("leak07" in key or "bmoc" in key for key in invalidated)
        finally:
            service.stop()


class TestOneCacheCount:
    """The engine counts each cache probe once, as ``cache.hit`` or
    ``cache.miss``; the daemon's ``metrics.cache`` and each journal
    record's ``cache`` field read those counters, so the three agree
    under faults too."""

    N_FILES = 6

    def test_metrics_journal_and_counters_agree_per_request(self, tmp_path):
        from repro.resilience import injected

        root = tmp_path / "proj"
        root.mkdir()
        for i in range(self.N_FILES):
            (root / f"part{i:02d}.go").write_text(LEAKY.format(name=f"leak{i:02d}"))
        journal = tmp_path / "journal.jsonl"
        service = AnalysisService(str(root), journal_path=str(journal)).start()

        def detect() -> dict:
            before = ok(service.call("metrics"))["counters"]
            result = ok(service.call("detect"))
            metrics = ok(service.call("metrics"))
            after = metrics["counters"]
            assert metrics["cache"]["hits"] == after.get("cache.hit", 0)
            assert metrics["cache"]["misses"] == after.get("cache.miss", 0)
            deltas = {
                key: after.get(name, 0) - before.get(name, 0)
                for key, name in (("hits", "cache.hit"), ("misses", "cache.miss"))
            }
            record = [r for r in service.journal.read() if r["method"] == "detect"][-1]
            assert record["cache"] == deltas
            # one probe per shard: a miss is every shard the cache did not
            # answer, failed shards included
            shards = result["shards"]
            assert deltas == {"hits": shards["cached"], "misses": shards["executed"]}
            return result

        try:
            cold = detect()
            assert cold["shards"]["cached"] == 0
            warm = detect()
            assert warm["shards"]["skip_rate"] == 1.0
            # an edit that adds no declarations: one file's leak fixed
            (root / "part02.go").write_text(FIXED.format(name="leak02"))
            edited = detect()
            assert edited["shards"]["cached"] > 0 and edited["shards"]["executed"] > 0
            # another file's leak changed under a solver crash: its shard
            # misses, then fails, and keeps its miss
            (root / "part04.go").write_text(
                LEAKY.format(name="leak04").replace("ch <- 1", "ch <- 4")
            )
            with injected("solve:raise"):
                faulted = detect()
            assert faulted["shards"]["failed"] >= 1
            assert faulted["health"] == "degraded"
        finally:
            service.stop()


def _span_names(span: dict):
    yield span["name"]
    for child in span.get("children", ()):
        yield from _span_names(child)


class TestFingerprintDigests:
    """A warm daemon digests only the functions an edit re-lowered, once:
    a reused function keeps its digest, and the refresh diff and the
    engine's shard fingerprints share the program's digests."""

    def test_one_edit_digests_the_edited_files_functions_once(self, tmp_path):
        for i in range(4):
            (tmp_path / f"part{i:02d}.go").write_text(LEAKY.format(name=f"leak{i:02d}"))
        service = AnalysisService(str(tmp_path)).start()
        try:
            ok(service.call("detect"))
            before = ok(service.call("metrics"))["counters"]
            (tmp_path / "part01.go").write_text(FIXED.format(name="leak01"))
            response = service.call("detect")
            assert ok(response)["refresh"]["reparsed"] == 1
            after = ok(service.call("metrics"))["counters"]
            # refresh + detect together: one digest per function of the
            # edited file; the other three files' six functions are reused
            digests = after.get("fingerprint.digests", 0) - before.get(
                "fingerprint.digests", 0
            )
            assert len(service.state.program.functions) == 8
            assert digests == 2  # leak01, leak01$lit1
            spans = ok(service.call("stats"))["spans"]
            tree = next(s for s in spans if s.get("trace_id") == response["trace_id"])
            assert list(_span_names(tree)).count("fingerprint") == 1
        finally:
            service.stop()
