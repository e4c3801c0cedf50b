"""repro.fleet unit coverage: planning, manifest, aggregation, driver.

The end-to-end parity + resume acceptance suite lives in
``test_fleet_resume.py``; this file exercises each fleet layer in
isolation plus the driver's failure handling (dispatch chaos,
supervisor exhaustion).
"""

import json
import os

import pytest

from repro.fleet import (
    FleetSupervisor,
    SupervisorError,
    SweepManifest,
    SweepPlan,
    aggregate,
    canonical_bytes,
    materialize_bugset,
    outcome_from_detect,
    outcome_from_fuzz,
    merge_telemetry,
    plan_corpus,
    plan_fuzz,
    run_sweep,
    serial_sweep,
)
from repro.fuzz.campaign import run_campaign
from repro.resilience.faultinject import injected
from repro.service.daemon import AnalysisService


BUGGY = """package main

func leak() {
\tch := make(chan int)
\tgo func() {
\t\tch <- 1
\t}()
}

func main() {
\tleak()
}
"""

OK_PROG = """package main

func main() {
\tch := make(chan int, 1)
\tch <- 1
\t<-ch
}
"""


def write_corpus(root, cases):
    for name, source in cases.items():
        case_dir = os.path.join(str(root), name)
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(case_dir, "main.go"), "w") as handle:
            handle.write(source)
    return str(root)


@pytest.fixture
def small_corpus(tmp_path):
    return write_corpus(
        tmp_path / "corpus",
        {"alpha": BUGGY, "beta": OK_PROG, "gamma": BUGGY, "delta": OK_PROG},
    )


class TestPlan:
    def test_corpus_plan_is_deterministic(self, small_corpus):
        p1, p2 = plan_corpus(small_corpus), plan_corpus(small_corpus)
        assert [u.uid for u in p1.units] == ["alpha", "beta", "delta", "gamma"]
        assert [u.to_json() for u in p1.units] == [u.to_json() for u in p2.units]

    def test_fingerprint_tracks_content(self, small_corpus):
        before = plan_corpus(small_corpus).by_uid()["beta"].fingerprint
        with open(os.path.join(small_corpus, "beta", "main.go"), "a") as handle:
            handle.write("// edited\n")
        after = plan_corpus(small_corpus).by_uid()["beta"].fingerprint
        assert before != after
        # untouched units keep their fingerprints
        assert (
            plan_corpus(small_corpus).by_uid()["alpha"].fingerprint
            == plan_corpus(small_corpus).by_uid()["alpha"].fingerprint
        )

    def test_fingerprint_folds_in_engine_version(self, small_corpus, monkeypatch):
        before = plan_corpus(small_corpus).by_uid()["alpha"].fingerprint
        from repro.engine import fingerprint as engine_fp

        monkeypatch.setattr(engine_fp, "ENGINE_VERSION", "test-bump")
        assert plan_corpus(small_corpus).by_uid()["alpha"].fingerprint != before

    def test_single_file_root_is_one_unit(self, tmp_path):
        path = tmp_path / "one.go"
        path.write_text(OK_PROG)
        plan = plan_corpus(str(path))
        assert len(plan.units) == 1
        assert plan.units[0].uid == "one"
        assert plan.units[0].path == str(path)

    def test_empty_tree_raises(self, tmp_path):
        os.makedirs(tmp_path / "empty" / "nested")
        with pytest.raises(FileNotFoundError):
            plan_corpus(str(tmp_path / "empty"))

    def test_fuzz_plan_shards_cover_the_range(self):
        plan = plan_fuzz(seed=9, count=55, shard_size=25)
        assert [(u.start, u.count) for u in plan.units] == [(0, 25), (25, 25), (50, 5)]
        assert [u.uid for u in plan.units] == [
            "fuzz-s9-00000",
            "fuzz-s9-00025",
            "fuzz-s9-00050",
        ]
        # spec changes change fingerprints
        assert (
            plan_fuzz(seed=9, count=55, shard_size=25).units[0].fingerprint
            != plan_fuzz(seed=10, count=55, shard_size=25).units[0].fingerprint
        )

    def test_materialize_bugset_is_idempotent(self, tmp_path):
        root = str(tmp_path / "bugset")
        dirs = materialize_bugset(root)
        assert len(dirs) == 49
        before = [u.fingerprint for u in plan_corpus(root).units]
        materialize_bugset(root)
        assert [u.fingerprint for u in plan_corpus(root).units] == before


class TestManifest:
    def test_latest_record_wins_and_failed_is_not_reusable(self, tmp_path):
        manifest = SweepManifest(str(tmp_path / "m.jsonl"))
        manifest.record_unit("u1", "fp1", ok=True, outcome={"kind": "project"})
        manifest.record_unit("u1", "fp1", ok=False, outcome=None, meta={"error": "x"})
        assert manifest.reusable_outcome("u1", "fp1") is None
        manifest.record_unit("u1", "fp1", ok=True, outcome={"kind": "project", "v": 2})
        assert manifest.reusable_outcome("u1", "fp1") == {"kind": "project", "v": 2}

    def test_fingerprint_mismatch_is_not_reusable(self, tmp_path):
        manifest = SweepManifest(str(tmp_path / "m.jsonl"))
        manifest.record_unit("u1", "fp1", ok=True, outcome={"kind": "project"})
        assert manifest.reusable_outcome("u1", "other") is None

    def test_torn_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        manifest = SweepManifest(path)
        manifest.record_unit("u1", "fp1", ok=True, outcome={"kind": "project"})
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "uid": "u2", "fing')  # killed mid-write
        assert manifest.completed_uids() == ["u1"]
        # and appending after a torn tail still works
        manifest.record_unit("u3", "fp3", ok=True, outcome={"kind": "project"})
        assert "u3" in manifest.completed_uids()


class TestReport:
    def test_outcome_from_detect_keeps_only_the_deterministic_slice(self):
        payload = {
            "code": 1,
            "health": "ok",
            "timed_out": False,
            "bmoc": 1,
            "traditional": 0,
            "reports": [{"category": "bmoc-chan", "description": "d",
                         "lines": [3], "render": "r", "extra": "dropped"}],
            "generation": 7,
            "elapsed_seconds": 1.23,
            "shards": {"cached": 5},
        }
        outcome = outcome_from_detect(payload)
        assert "generation" not in outcome and "elapsed_seconds" not in outcome
        assert "shards" not in outcome
        assert outcome["reports"][0] == {
            "category": "bmoc-chan", "description": "d", "lines": [3], "render": "r"
        }

    def test_canonical_bytes_ignores_dict_insertion_order(self):
        a = {"kind": "x", "totals": {"a": 1, "b": 2}}
        b = {"totals": {"b": 2, "a": 1}, "kind": "x"}
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_aggregate_counts_and_marks_incomplete(self, small_corpus):
        plan = plan_corpus(small_corpus)
        outcomes = {
            "alpha": outcome_from_detect(
                {"code": 1, "health": "ok", "reports": [{"category": "bmoc-chan"}]}
            ),
            "beta": outcome_from_detect({"code": 0, "health": "ok", "reports": []}),
        }
        report = aggregate(plan, outcomes)
        assert report["totals"]["units"] == 4
        assert report["totals"]["completed"] == 2
        assert report["totals"]["incomplete"] == ["delta", "gamma"]
        assert report["totals"]["by_category"] == {"bmoc-chan": 1}

    def test_merge_telemetry_separates_skipped_from_executed(self):
        tel = merge_telemetry(
            {
                "a": {"daemon": "d0", "attempts": 2, "elapsed_seconds": 0.5},
                "b": {"skipped": True},
            },
            elapsed_seconds=1.0,
            restarts=1,
        )
        assert tel["executed"] == 1 and tel["skipped"] == 1
        assert tel["redispatches"] == 1
        assert tel["by_daemon"] == {"d0": 1}
        assert tel["units_per_second"] == 1.0


class TestDriver:
    def test_thread_fleet_matches_serial(self, small_corpus, tmp_path):
        plan = plan_corpus(small_corpus)
        fleet = run_sweep(
            plan, daemons=2, mode="thread",
            manifest_path=str(tmp_path / "m.jsonl"),
        )
        serial = serial_sweep(plan)
        assert fleet.complete() and not fleet.failed
        assert canonical_bytes(fleet.report()) == canonical_bytes(serial.report())
        # both daemons did work on 4 units
        assert sum(fleet.telemetry()["by_daemon"].values()) == 4

    def test_dispatch_fault_restarts_daemon_and_redispatches(
        self, small_corpus, tmp_path
    ):
        plan = plan_corpus(small_corpus)
        serial = serial_sweep(plan)
        with injected("fleet-dispatch@gamma:raise:times=1"):
            result = run_sweep(
                plan, daemons=2, mode="thread",
                manifest_path=str(tmp_path / "m.jsonl"),
            )
        assert result.complete()
        assert result.restarts == 1
        assert any("gamma" in i for i in result.incidents)
        assert canonical_bytes(result.report()) == canonical_bytes(serial.report())

    def test_supervisor_spawn_exhaustion_is_fatal(self, small_corpus, tmp_path):
        plan = plan_corpus(small_corpus)
        with injected("fleet-supervisor@spawn:raise"):
            with pytest.raises(SupervisorError):
                run_sweep(
                    plan, daemons=1, mode="thread",
                    manifest_path=str(tmp_path / "m.jsonl"),
                )

    def test_spawn_retries_past_transient_faults(self, small_corpus):
        # one injected spawn failure is inside the default retry budget
        with injected("fleet-supervisor@spawn:raise:times=1"):
            sup = FleetSupervisor(1, os.path.join(small_corpus, "beta")).start()
        try:
            assert sup.client("d0").result("ping")["ok"]
        finally:
            sup.stop()


class TestFuzzSharding:
    def test_run_campaign_start_offsets_the_index_range(self):
        full = run_campaign(11, 6)
        shard = run_campaign(11, 2, start=3)
        assert [t.index for t in shard.triages] == [3, 4]
        assert [t.to_dict() for t in shard.triages] == [
            t.to_dict() for t in full.triages[3:5]
        ]

    def test_daemon_fuzz_method_matches_direct_campaign(self, tmp_path):
        seed_file = tmp_path / "seed.go"
        seed_file.write_text(OK_PROG)
        service = AnalysisService(str(seed_file)).start()
        try:
            response = service.call("fuzz", {"seed": 11, "start": 2, "count": 3})
            assert "result" in response
            payload = response["result"]
        finally:
            service.stop()
        direct = run_campaign(11, 3, start=2)
        # normalize both sides: in-process call() skips the wire, so
        # tuples have not been flattened to lists yet
        assert json.loads(json.dumps(payload["triages"])) == json.loads(
            json.dumps([t.to_dict() for t in direct.triages])
        )
        assert payload["unexplained"] == len(direct.unexplained())

    def test_daemon_fuzz_method_validates_params(self, tmp_path):
        seed_file = tmp_path / "seed.go"
        seed_file.write_text(OK_PROG)
        service = AnalysisService(str(seed_file)).start()
        try:
            response = service.call("fuzz", {"seed": 1, "count": 0})
            assert "error" in response
            response = service.call("fuzz", {"seed": 1, "count": "five"})
            assert "error" in response
        finally:
            service.stop()

    def test_sharded_fuzz_sweep_matches_serial(self, tmp_path):
        plan = plan_fuzz(seed=11, count=10, shard_size=5)
        serial = serial_sweep(plan)
        fleet = run_sweep(
            plan, daemons=2, mode="thread",
            manifest_path=str(tmp_path / "m.jsonl"),
        )
        assert fleet.complete()
        assert canonical_bytes(fleet.report()) == canonical_bytes(serial.report())
        # shards concatenated in plan order reproduce the unsharded run
        merged = []
        for unit in plan.units:
            merged.extend(serial.outcomes[unit.uid]["triages"])
        unsharded = run_campaign(11, 10)
        assert merged == [t.to_dict() for t in unsharded.triages]
