"""Fleet resume + parity acceptance suite.

The ISSUE-10 acceptance bar, asserted end to end:

* a 49-program corpus sweep across 3 daemons produces **byte-identical**
  canonical report bytes to the serial one-shot sweep;
* a sweep killed mid-flight (deterministic ``fleet-supervisor``
  checkpoint fault) resumes from its manifest: completed units are
  skipped, the rest re-run, and the final report is still byte-identical;
* an edited unit (changed fingerprint) re-runs on resume even though its
  uid completed before.

Daemons run in thread mode here — same wire protocol and scheduler as
process mode, without interpreter-spawn latency; the CI
``fleet-smoke`` job covers the process backend.
"""

import os

import pytest

from repro.fleet import (
    SweepKilled,
    SweepManifest,
    SweepPlan,
    canonical_bytes,
    materialize_bugset,
    plan_corpus,
    run_sweep,
    serial_sweep,
)
from repro.resilience.faultinject import injected


@pytest.fixture(scope="module")
def bugset_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bugset"))
    materialize_bugset(root)
    return root


@pytest.fixture(scope="module")
def serial_bytes(bugset_root):
    """The serial one-shot reference over the full 49-program corpus."""
    result = serial_sweep(plan_corpus(bugset_root))
    assert result.complete() and not result.failed
    return canonical_bytes(result.report())


def subset(plan, n):
    return SweepPlan(kind=plan.kind, root=plan.root, units=plan.units[:n])


class TestFortyNineProgramParity:
    def test_three_daemon_sweep_is_byte_identical_to_serial(
        self, bugset_root, serial_bytes, tmp_path
    ):
        plan = plan_corpus(bugset_root)
        assert len(plan.units) == 49
        fleet = run_sweep(
            plan, daemons=3, mode="thread",
            manifest_path=str(tmp_path / "m.jsonl"),
        )
        assert fleet.complete() and not fleet.failed
        assert canonical_bytes(fleet.report()) == serial_bytes
        # the sweep actually spread across the fleet
        assert len(fleet.telemetry()["by_daemon"]) == 3

    def test_killed_then_resumed_sweep_is_byte_identical(
        self, bugset_root, serial_bytes, tmp_path
    ):
        plan = plan_corpus(bugset_root)
        manifest_path = str(tmp_path / "m.jsonl")
        # deterministic mid-sweep kill: the supervisor checkpoint right
        # after Set10's manifest record lands
        with injected("fleet-supervisor@Set10:raise"):
            with pytest.raises(SweepKilled):
                run_sweep(
                    plan, daemons=3, mode="thread", manifest_path=manifest_path
                )
        completed = SweepManifest(manifest_path).completed_uids()
        assert "Set10" in completed  # record written before the kill point
        assert 0 < len(completed) < 49

        resumed = run_sweep(
            plan, daemons=3, mode="thread", manifest_path=manifest_path
        )
        assert resumed.complete() and not resumed.failed
        skipped = sorted(
            uid for uid, meta in resumed.metas.items() if meta.get("skipped")
        )
        assert skipped == sorted(completed)
        assert canonical_bytes(resumed.report()) == serial_bytes


class TestResumeSemantics:
    def test_completed_units_skip_and_changed_fingerprints_rerun(
        self, bugset_root, tmp_path
    ):
        plan = subset(plan_corpus(bugset_root), 6)
        manifest_path = str(tmp_path / "m.jsonl")
        first = run_sweep(
            plan, daemons=2, mode="thread", manifest_path=manifest_path
        )
        assert first.complete()

        # edit one unit in place; only it re-runs on the next sweep
        edited = plan.units[2]
        with open(os.path.join(edited.path, "main.go"), "a") as handle:
            handle.write("// edited after first sweep\n")
        replanned = subset(plan_corpus(bugset_root), 6)
        assert replanned.units[2].fingerprint != edited.fingerprint
        second = run_sweep(
            replanned, daemons=2, mode="thread", manifest_path=manifest_path
        )
        assert second.complete()
        rerun = [u for u, m in second.metas.items() if not m.get("skipped")]
        assert rerun == [edited.uid]
        # the re-run superseded the stale record: a third sweep skips all
        third = run_sweep(
            replanned, daemons=2, mode="thread", manifest_path=manifest_path
        )
        assert all(m.get("skipped") for m in third.metas.values())

    def test_resume_after_kill_skips_exactly_the_manifest(
        self, bugset_root, tmp_path
    ):
        plan = subset(plan_corpus(bugset_root), 8)
        manifest_path = str(tmp_path / "m.jsonl")
        with injected("fleet-supervisor@Miss03:raise"):
            with pytest.raises(SweepKilled):
                run_sweep(
                    plan, daemons=2, mode="thread", manifest_path=manifest_path
                )
        completed = set(SweepManifest(manifest_path).completed_uids())
        resumed = run_sweep(
            plan, daemons=2, mode="thread", manifest_path=manifest_path
        )
        assert resumed.complete()
        for unit in plan.units:
            meta = resumed.metas[unit.uid]
            if unit.uid in completed:
                assert meta.get("skipped"), unit.uid
            else:
                assert not meta.get("skipped"), unit.uid

    def test_serial_and_resumed_reports_agree_on_subset(
        self, bugset_root, tmp_path
    ):
        plan = subset(plan_corpus(bugset_root), 8)
        manifest_path = str(tmp_path / "m.jsonl")
        with injected("fleet-supervisor@Miss05:raise"):
            with pytest.raises(SweepKilled):
                run_sweep(
                    plan, daemons=2, mode="thread", manifest_path=manifest_path
                )
        resumed = run_sweep(
            plan, daemons=2, mode="thread", manifest_path=manifest_path
        )
        serial = serial_sweep(plan)
        assert canonical_bytes(resumed.report()) == canonical_bytes(serial.report())
