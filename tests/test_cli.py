"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.corpus.snippets import FIGURE1

BUGGY = FIGURE1.source

CLEAN = """package main

func main() {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	println(<-ch)
}
"""

SPIN = """package main

func worker(ch chan int) {
	ch <- 1
}

func helper(done chan int) {
	done <- 1
}

func main() {
	ch := make(chan int)
	done := make(chan int)
	go worker(ch)
	go helper(done)
	<-done
	i := 0
	for i < 1000 {
		i = i + 1
	}
	println(i)
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.go"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.go"
    path.write_text(CLEAN)
    return str(path)


class TestDetectCommand:
    def test_reports_bug(self, buggy_file, capsys):
        code = main(["detect", buggy_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "bmoc-chan" in out
        assert "outDone" in out

    def test_clean_program(self, clean_file, capsys):
        code = main(["detect", clean_file])
        assert code == 0
        assert "no bugs detected" in capsys.readouterr().out

    def test_whole_program_mode(self, buggy_file, capsys):
        code = main(["detect", "--no-disentangle", buggy_file])
        assert code == 1


class TestFixCommand:
    def test_prints_diff(self, buggy_file, capsys):
        code = main(["fix", buggy_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy: buffer" in out
        assert "make(chan int, 1)" in out

    def test_write_applies_patch(self, buggy_file, capsys):
        main(["fix", "--write", buggy_file])
        patched = open(buggy_file).read()
        assert "make(chan int, 1)" in patched
        # the patched file is clean
        code = main(["detect", buggy_file])
        assert code == 0

    def test_nothing_to_fix(self, clean_file, capsys):
        code = main(["fix", clean_file])
        assert code == 0
        assert "no channel-only BMOC bugs" in capsys.readouterr().out


class TestRunCommand:
    def test_leak_reported(self, buggy_file, capsys):
        code = main(["run", buggy_file, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "LEAKED" in out

    def test_clean_run(self, clean_file, capsys):
        code = main(["run", clean_file, "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0/3 schedule(s) misbehaved" in out


class TestExploreCommand:
    def test_leaking_program_found_and_replayed(self, buggy_file, capsys):
        code = main(["explore", buggy_file, "--replay"])
        out = capsys.readouterr().out
        assert code == 1
        assert "LEAK" in out
        assert "reproduced" in out

    def test_clean_program_proven(self, clean_file, capsys):
        code = main(["explore", clean_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out
        assert "0 leaking" in out

    def test_step_bounded_leak_replays_under_the_same_bound(self, tmp_path, capsys):
        # main outlives the step bound after parking ``worker`` on its send:
        # the leaking trace ends at the bound, so the replay must stop there too
        path = tmp_path / "spin.go"
        path.write_text(SPIN)
        code = main(["explore", str(path), "--max-steps", "200", "--replay"])
        out = capsys.readouterr().out
        assert code == 1
        assert "LEAK: worker:4 (send)" in out
        assert "reproduced" in out


class TestBudgetValidation:
    """A numeric flag below its floor is an argparse usage error (exit 2):
    a run, step, program or per-primitive budget below one would report a
    vacuous clean result, a zero daemon count crashed, a zero worker count
    was silently clamped, a negative watch interval crashed the poll loop
    after the first detect, and a fleet deadline or straggler timeout at
    or below zero failed every unit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "FILE", "--max-runs", "0"],
            ["explore", "FILE", "--max-steps", "0"],
            ["diffcheck", "--max-runs", "0"],
            ["diffcheck", "--max-steps", "-5"],
            ["stats", "FILE", "--max-runs", "0"],
            ["stats", "FILE", "--max-steps", "0"],
            ["run", "FILE", "--seeds", "0"],
            ["run", "FILE", "--max-steps", "0"],
            ["fuzz", "--budget", "0", "--count", "10"],
            ["fuzz", "--max-steps", "0"],
            ["fuzz", "--total-steps", "0"],
            ["fuzz", "--count", "0"],
            ["fleet", "sweep", "FILE", "--daemons", "0"],
            ["fleet", "fuzz", "--count", "2", "--daemons", "0"],
            ["fleet", "sweep", "FILE", "--mode", "thread", "--workers", "0"],
            ["serve", "FILE", "--workers", "0"],
            ["serve", "FILE", "--max-queue", "0"],
            ["serve", "FILE", "--max-queue", "-1"],
            ["detect", "FILE", "--budget-nodes", "-5"],
            ["detect", "FILE", "--budget-nodes", "0"],
            ["serve", "FILE", "--budget-nodes", "0"],
            ["watch", "FILE", "--cycles", "0", "--budget-nodes", "0"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "FILE"),
    )
    def test_budget_below_its_floor_is_a_usage_error(
        self, argv, buggy_file, capsys, monkeypatch
    ):
        import io
        import sys as _sys

        # a serve that slipped past argparse would read stdin; give it EOF
        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))
        argv = [buggy_file if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "FILE", "--budget-seconds", "0"],
            ["detect", "FILE", "--budget-seconds", "-1"],
            ["detect", "FILE", "--budget-seconds", "nan"],
            ["serve", "FILE", "--budget-seconds", "0"],
            ["watch", "FILE", "--cycles", "0", "--budget-seconds", "-1"],
            ["fleet", "sweep", "FILE", "--mode", "thread", "--deadline", "0"],
            ["fleet", "sweep", "FILE", "--mode", "thread", "--deadline", "-3"],
            ["fleet", "sweep", "FILE", "--mode", "thread", "--straggler-timeout", "-1"],
            ["fleet", "sweep", "FILE", "--mode", "thread", "--straggler-timeout", "0"],
            ["fleet", "fuzz", "--count", "2", "--deadline", "nan"],
            ["fleet", "fuzz", "--count", "2", "--straggler-timeout", "inf"],
            ["client", "detect", "--port", "1", "--deadline", "0"],
            ["client", "detect", "--port", "1", "--deadline", "-1"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "FILE"),
    )
    def test_vacuous_wall_clock_budget_is_a_usage_error(
        self, argv, buggy_file, capsys, monkeypatch
    ):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))
        finite = argv[-1] in ("nan", "inf")
        complaint = "must be a finite number" if finite else "must be above 0"
        argv = [buggy_file if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err

    def test_negative_watch_interval_is_a_usage_error(self, buggy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", buggy_file, "--cycles", "1", "--interval", "-1"])
        assert excinfo.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err

    def test_zero_watch_interval_is_accepted(self, buggy_file, capsys):
        assert main(["watch", buggy_file, "--cycles", "1", "--interval", "0"]) == 1


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    [action] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _every_command():
    commands = []
    for name, sub in _subcommands(build_parser()).items():
        commands.append([name])
        if name == "fleet":
            commands.extend([name, fleet] for fleet in _subcommands(sub))
    return commands


#: the engine flags detect, serve and watch share
ENGINE_FLAGS = {
    "--cache-dir",
    "--budget-seconds",
    "--budget-nodes",
}


class TestCLISurface:
    """Walks ``build_parser()``: every command's help renders, a deleted
    flag stays deleted, and the engine flags are one shared set."""

    @pytest.mark.parametrize("command", _every_command(), ids=" ".join)
    def test_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {' '.join(command)}")

    @pytest.mark.parametrize("command", ["detect", "fix", "stats", "serve", "watch"])
    def test_retry_timeouts_is_rejected(self, command, buggy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, buggy_file, "--retry-timeouts"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --retry-timeouts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "FILE", "--quota", "1"],
            ["serve", "FILE", "--quota-burst", "1"],
            ["serve", "FILE", "--tenant-max-queue", "1"],
            ["client", "detect", "--port", "1", "--priority", "high"],
            ["explore", "FILE", "--preemption-bound", "1"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "FILE"),
    )
    def test_deleted_scheduling_flags_are_rejected(self, argv, buggy_file, capsys):
        argv = [buggy_file if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "FILE", "--max-retries", "1"],
            ["fix", "FILE", "--max-retries", "1"],
            ["stats", "FILE", "--max-retries", "1"],
            ["fuzz", "--max-retries", "1"],
            ["serve", "FILE", "--max-retries", "1"],
            ["watch", "FILE", "--max-retries", "1"],
            ["detect", "FILE", "--checkers", "double-lock"],
            ["serve", "FILE", "--checkers", "double-lock"],
            ["watch", "FILE", "--checkers", "double-lock"],
            ["detect", "FILE", "--fault-seed", "1"],
            ["fix", "FILE", "--fault-seed", "1"],
            ["stats", "FILE", "--fault-seed", "1"],
            ["fleet", "sweep", "FILE", "--fault-seed", "1"],
            ["fleet", "fuzz", "--count", "2", "--fault-seed", "1"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "FILE"),
    )
    def test_deleted_detect_settings_are_rejected(self, argv, buggy_file, capsys):
        """A transient failure is retried once everywhere, every detect
        runs the five Table 1 checkers, and fault plans take no seed."""
        argv = [buggy_file if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    def test_detect_serve_and_watch_share_the_engine_flags(self, tmp_path):
        from repro.cli import _engine_config

        parser = build_parser()
        commands = _subcommands(parser)
        options = {
            name: set(commands[name]._option_string_actions)
            for name in ("detect", "serve", "watch")
        }
        assert (options["serve"] & options["watch"]) - {"-h", "--help"} == ENGINE_FLAGS
        assert ENGINE_FLAGS <= options["detect"]
        flags = [
            "--cache-dir", str(tmp_path), "--budget-seconds", "5",
            "--budget-nodes", "100",
        ]
        for name in ("detect", "serve", "watch"):
            config = _engine_config(parser.parse_args([name, "x.go", *flags]))
            assert (
                str(config.cache.path),
                config.budget_wall_seconds,
                config.budget_solver_nodes,
                config.disentangle,
            ) == (str(tmp_path), 5.0, 100, True), name


class TestDiffcheckCommand:
    def test_agreement_table(self, capsys):
        code = main(["diffcheck", "--max-runs", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree-bug" in out
        assert "unexplained disagreements: 0" in out


class TestNonblockingCommand:
    def test_detects_send_on_closed(self, tmp_path, capsys):
        path = tmp_path / "nb.go"
        path.write_text(
            "package main\nfunc main() {\n\tch := make(chan int, 1)\n"
            "\tgo func() {\n\t\tch <- 1\n\t}()\n\tclose(ch)\n}\n"
        )
        code = main(["nonblocking", str(path)])
        assert code == 1
        assert "send-on-closed" in capsys.readouterr().out


class TestCorpusCommands:
    def test_table1_subset(self, capsys):
        code = main(["table1", "bbolt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bbolt" in out and "Total" in out


class TestObservabilityFlags:
    def test_detect_trace_appends_stage_table(self, buggy_file, capsys):
        code = main(["detect", "--trace", buggy_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "Per-bug solver effort" in out
        for stage in ("parse", "ssa-build", "path-enum", "solve"):
            assert stage in out

    def test_fix_trace_shows_gfix_phases(self, buggy_file, capsys):
        code = main(["fix", "--trace", buggy_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "fix-preprocess" in out and "fix-transform" in out

    def test_explore_json(self, buggy_file, capsys):
        import json

        code = main(["explore", "--json", buggy_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema"] == "repro.obs/2"
        assert payload["kind"] == "exploration"
        assert payload["runs"] > 0 and payload["any_leak"]

    def test_diffcheck_json_with_case_subset(self, capsys):
        import json

        code = main(["diffcheck", "--json", "--cases", "Set00", "--max-runs", "32"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["kind"] == "diffcheck"
        assert [v["case_id"] for v in payload["verdicts"]] == ["Set00"]

    def test_diffcheck_unknown_case_prefix(self, capsys):
        code = main(["diffcheck", "--cases", "NoSuchCase"])
        assert code == 2
        assert "no corpus cases match" in capsys.readouterr().err


class TestStatsCommand:
    def test_full_pipeline_table(self, buggy_file, capsys):
        code = main(["stats", buggy_file, "--max-runs", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 fixed" in out
        for stage in ("disentangle", "encode", "solve", "explore"):
            assert stage in out

    def test_json_schema(self, buggy_file, capsys):
        import json

        from repro.obs import PIPELINE_STAGES

        code = main(["stats", buggy_file, "--json", "--max-runs", "64"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema"] == "repro.obs/2"
        stage_names = {s["name"] for s in payload["stages"]}
        assert set(PIPELINE_STAGES) <= stage_names
        assert payload["reports"] >= 1 and payload["fixed"] == 1


class TestServeCommand:
    def test_stdio_round_trip(self, buggy_file, monkeypatch, capsys):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys,
            "stdin",
            io.StringIO('{"id": 1, "method": "ping"}\n{"id": 2, "method": "shutdown"}\n'),
        )
        code = main(["serve", buggy_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "on stdio" in captured.err  # banner stays off the protocol channel
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert lines[0]["result"]["protocol"] == "repro.service/1"
        assert lines[1]["result"]["ok"] is True

    def test_unloadable_project_is_usage_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope.go")])
        assert code == 2
        assert "cannot load project" in capsys.readouterr().err


class TestWatchCommand:
    def test_initial_detect_sets_exit_code(self, buggy_file, clean_file, capsys):
        assert main(["watch", buggy_file, "--cycles", "0"]) == 1
        assert "watching" in capsys.readouterr().out
        assert main(["watch", clean_file, "--cycles", "0"]) == 0


class TestClientCommand:
    @pytest.fixture
    def server(self, buggy_file):
        import threading

        from repro.service import AnalysisService, serve_tcp

        service = AnalysisService(buggy_file).start()
        server = serve_tcp(service)
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        yield server.address
        server.begin_shutdown()
        service.stop()
        thread.join(timeout=10)

    def test_detect_exits_like_one_shot(self, server, buggy_file, capsys):
        import json

        host, port = server
        code = main(["client", "detect", "--port", str(port)])
        response = json.loads(capsys.readouterr().out)
        assert code == 1 == response["result"]["code"]
        assert code == main(["detect", buggy_file])

    def test_health_and_bad_method_codes(self, server, capsys):
        host, port = server
        assert main(["client", "health", "--port", str(port)]) == 0
        assert main(["client", "nonsense", "--port", str(port)]) == 2

    def test_bad_params_is_usage_error(self, server, capsys):
        host, port = server
        assert main(["client", "ping", "--port", str(port), "--params", "not json"]) == 2
        assert main(["client", "ping", "--port", str(port), "--params", "[1]"]) == 2

    def test_connection_refused_is_usage_error(self, capsys):
        # bind-then-close guarantees a dead port
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["client", "ping", "--port", str(port)]) == 2


class TestExitCodeRegression:
    """Satellite: ``python -m repro`` propagates the daemon/client exit
    codes exactly like one-shot detect — asserted on real subprocesses."""

    @staticmethod
    def _run(argv, **kwargs):
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [_sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            **kwargs,
        )

    def test_daemon_client_codes_match_one_shot(self, buggy_file, clean_file):
        import subprocess
        import sys as _sys
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", buggy_file, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = daemon.stdout.readline()
            assert "repro-serve listening on" in banner
            port = banner.strip().rsplit(":", 1)[1]
            one_shot = self._run(["detect", buggy_file])
            via_client = self._run(["client", "detect", "--port", port])
            assert via_client.returncode == one_shot.returncode == 1
            assert self._run(["client", "health", "--port", port]).returncode == 0
            assert self._run(["client", "shutdown", "--port", port]).returncode == 0
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def test_clean_project_exits_zero_everywhere(self, clean_file):
        assert self._run(["detect", clean_file]).returncode == 0
        assert self._run(["watch", clean_file, "--cycles", "0"]).returncode == 0

    @staticmethod
    def _run_into_closed_pipe(argv):
        """Run ``argv`` with stdout a pipe whose reader is already gone."""
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [_sys.executable, "-m", "repro", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write)

    def test_table1_into_a_closed_pipe_exits_141(self):
        proc = self._run_into_closed_pipe(["table1", "Docker"])
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr

    def test_top_into_a_closed_pipe_exits_141(self, tmp_path):
        from repro.obs import TelemetryJournal, request_record

        path = str(tmp_path / "telemetry.jsonl")
        journal = TelemetryJournal(path)
        for i in range(3):
            journal.append(request_record(
                trace_id=f"trace{i}", method="detect", outcome="ok",
                elapsed_seconds=0.05,
            ))
        proc = self._run_into_closed_pipe(["top", "--journal", path])
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr

    def test_ctrl_c_returns_130(self, buggy_file, monkeypatch):
        # main() owns the mapping, so the gcatch-repro script gets it too
        from repro.api import Project

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Project, "detect", interrupted)
        assert main(["detect", buggy_file]) == 130


class TestUnloadableInput:
    """A file that cannot be read, decoded, lexed, parsed or lowered is a
    usage error: one ``repro: PATH: ERROR`` line on stderr and exit 2, the
    code argparse uses, never a traceback with the findings code 1."""

    CASES = {
        "lex": (b"package main\n\nfunc main() {\n\tx := #\n}\n",
                "4:7: unexpected character '#'"),
        "digit": ("package main\n\nfunc main() {\n\tx := \u0663\n}\n".encode(),
                  "4:7: unexpected character"),
        "parse": (b"package main\n\nfunc main() {\n\tx := (\n}\n",
                  "5:1: expected expression"),
        "build": (b"package main\n\nfunc main() {\n\tbreak\n}\n",
                  "line 4: break outside loop"),
        "undecodable": (b"package main\n\xff\xfe\n", "can't decode byte 0xff"),
        "missing": (None, "No such file or directory"),
    }

    def _input(self, tmp_path, kind):
        content, detail = self.CASES[kind]
        path = tmp_path / f"{kind}.go"
        if content is not None:
            path.write_bytes(content)
        return str(path), detail

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_detect_exits_2_with_one_line(self, tmp_path, kind):
        path, detail = self._input(tmp_path, kind)
        proc = TestExitCodeRegression._run(["detect", path])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro: {path}: ")
        assert detail in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["detect"], ["fix"], ["run", "--seeds", "1"], ["explore"], ["stats"],
         ["nonblocking"]],
        ids=lambda argv: argv[0],
    )
    def test_every_file_command_loads_the_same_way(self, tmp_path, argv, capsys):
        path, detail = self._input(tmp_path, "lex")
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], path, *argv[1:]])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: {path}: {detail}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["serve"], ["watch", "--cycles", "0"]], ids=lambda argv: argv[0]
    )
    def test_daemon_commands_exit_2_with_one_line(self, tmp_path, argv):
        import subprocess

        path, detail = self._input(tmp_path, "lex")
        proc = TestExitCodeRegression._run(
            [argv[0], path, *argv[1:]], stdin=subprocess.DEVNULL
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"cannot load project {path}: {detail}\n"

    @pytest.mark.parametrize(
        "argv", [["serve"], ["watch", "--cycles", "0"]], ids=lambda argv: argv[0]
    )
    def test_daemon_commands_say_a_missing_file_is_missing(self, tmp_path, argv):
        import subprocess

        path, detail = self._input(tmp_path, "missing")
        proc = TestExitCodeRegression._run(
            [argv[0], path, *argv[1:]], stdin=subprocess.DEVNULL
        )
        assert proc.returncode == 2
        assert proc.stderr == f"cannot load project {path}: {detail}\n"

    @pytest.mark.parametrize("kind", ["parse", "build"])
    @pytest.mark.parametrize("command", ["serve", "watch"])
    def test_daemon_commands_load_like_file_commands(self, tmp_path, kind, command, capsys):
        path, detail = self._input(tmp_path, kind)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load project {path}: ")
        assert detail in err
        assert err.count("\n") == 1

    #: Go rejects both; analysing either declaration alone would report a
    #: bug (the second f's leak, the second S's forgotten unlock)
    DUPLICATES = {
        "func": ("package main\n\nfunc f() {\n\tprintln(1)\n}\n\nfunc f() {\n"
                 "\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n}\n\n"
                 "func main() {\n\tf()\n}\n",
                 "func f redeclared at {path}:7 (previous declaration at {path}:3)"),
        "struct": ('package main\n\nimport "sync"\n\ntype S struct {\n\tn int\n}\n\n'
                   "type S struct {\n\tmu sync.Mutex\n}\n\nfunc (s *S) g() {\n"
                   "\ts.mu.Lock()\n}\n\nfunc main() {\n\ts := &S{}\n\ts.g()\n}\n",
                   "type S redeclared at {path}:9 (previous declaration at {path}:5)"),
    }

    @pytest.mark.parametrize("kind", sorted(DUPLICATES))
    def test_a_declaration_repeated_in_one_file_exits_2(self, tmp_path, kind):
        source, message = self.DUPLICATES[kind]
        path = tmp_path / "dup.go"
        path.write_text(source)
        proc = TestExitCodeRegression._run(["detect", str(path)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"repro: {path}: {message.format(path=path)}\n"

    @pytest.mark.parametrize("command", ["sweep", "plan"])
    def test_fleet_says_a_missing_corpus_is_missing(self, tmp_path, command, capsys):
        path = str(tmp_path / "no-such-dir")
        assert main(["fleet", command, path]) == 2
        assert capsys.readouterr().err == (
            f"cannot plan sweep: {path}: No such file or directory\n"
        )

    def test_fleet_says_a_corpus_without_go_files_has_none(self, tmp_path, capsys):
        assert main(["fleet", "plan", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot plan sweep: no .go files under {tmp_path}\n"


class TestUnknownEntry:
    """An ``--entry`` the program does not define is a usage error: one
    ``repro: PATH: no entry function 'NAME'`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "--seeds", "1"], ["explore"], ["stats", "--max-runs", "1"]],
        ids=lambda argv: argv[0],
    )
    def test_unknown_entry_exits_2_with_one_line(self, clean_file, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], clean_file, *argv[1:], "--entry", "nosuch"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: {clean_file}: no entry function 'nosuch'\n"
        assert captured.out == ""


class TestTelemetryCommands:
    def test_stats_prom_emits_valid_exposition(self, buggy_file, capsys):
        from repro.obs import validate_exposition

        code = main(["stats", buggy_file, "--prom", "--max-runs", "32"])
        out = capsys.readouterr().out
        assert code == 0
        assert validate_exposition(out) == []
        assert "repro_stage_seconds_total" in out
        assert "repro_solver_calls_total" in out

    def test_detect_trace_out_writes_otlp_json(self, buggy_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["detect", buggy_file, "--trace-out", str(trace_path)])
        assert code == 1  # the bug is still reported
        payload = json.loads(trace_path.read_text())
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        names = {s["name"] for s in spans}
        assert "gcatch" in names and "solve" in names
        by_id = {s["spanId"]: s for s in spans}
        children = [s for s in spans if s["parentSpanId"]]
        assert children and all(s["parentSpanId"] in by_id for s in children)

    def test_stats_trace_out(self, buggy_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["stats", buggy_file, "--max-runs", "32",
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert json.loads(trace_path.read_text())["resourceSpans"]

    def test_top_renders_from_a_journal(self, tmp_path, capsys):
        import json as jsonlib

        from repro.obs import TelemetryJournal, request_record

        path = str(tmp_path / "telemetry.jsonl")
        journal = TelemetryJournal(path)
        for i in range(10):
            journal.append(request_record(
                trace_id=f"trace{i}", method="detect", outcome="ok",
                elapsed_seconds=0.05,
            ))
        code = main(["top", "--journal", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "requests" in out and "latency p50/p95/p99" in out
        code = main(["top", "--journal", path, "--json", "--last", "5"])
        payload = jsonlib.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["requests"] == 5
        assert payload["latency"]["p50"] == 0.05

    def test_top_without_journal_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        from repro.obs import TelemetryJournal, request_record

        # the journal comes from --journal alone: REPRO_JOURNAL is not read
        ambient = str(tmp_path / "ambient.jsonl")
        TelemetryJournal(ambient).append(request_record(
            trace_id="t", method="detect", outcome="ok", elapsed_seconds=0.01,
        ))
        monkeypatch.setenv("REPRO_JOURNAL", ambient)
        assert main(["top"]) == 2
        assert "no journal (pass --journal PATH)" in capsys.readouterr().err
        missing = str(tmp_path / "nope.jsonl")
        assert main(["top", "--journal", missing]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_fuzz_json_carries_telemetry_block(self, capsys):
        import json

        code = main(["fuzz", "--count", "4", "--budget", "16", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        stats = payload["stats"]
        assert stats["schema"] == "repro.obs/2"
        assert stats["counters"]["fuzz.programs"] == 4
        assert sum(
            v for k, v in stats["counters"].items() if k.startswith("fuzz.bucket.")
        ) == 4
        wall = stats["distributions"]["fuzz.program.seconds"]
        assert wall["count"] == 4 and wall["p50"] is not None

    def test_fuzz_json_traces_runs_and_first_leak_stops(self, capsys):
        import json

        main(["fuzz", "--count", "10", "--json"])
        payload = json.loads(capsys.readouterr().out)
        counters = payload["stats"]["counters"]
        triages = payload["triages"]
        run_steps = payload["stats"]["distributions"]["explore.run.steps"]
        # every run that was not pruned observes its steps
        assert run_steps["count"] == counters["explore.runs"] - counters.get(
            "explore.sleep-prunes", 0
        )
        assert run_steps["total"] == sum(t["total_steps"] for t in triages)
        stops = sum(t["stopped"] == "first-leak" for t in triages)
        assert stops > 0
        assert counters["explore.first-leak-stops"] == stops
