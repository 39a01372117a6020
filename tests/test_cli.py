"""Unit tests for the command-line interface."""

import argparse
import json
import os

import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "out")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.organization == "solid_state"
        assert args.workload == "office"

    def test_bad_organization_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--organization", "cloud"])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "KittyHawk" in out
        assert "NEC" in out

    def test_trends(self, capsys):
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out
        assert "1996" in out or "1995" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("office", "pim", "database"):
            assert name in out

    def test_run_pim(self, capsys):
        rc = main(["run", "--workload", "pim", "--duration", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "write-traffic reduction" in out
        assert "solid_state" in out

    def test_run_clients_prints_dispatch_delay(self, capsys):
        rc = main(["run", "--clients", "2", "--duration", "5"])
        assert rc == 0
        assert "dispatch delay (total)" in capsys.readouterr().out

    def test_run_disk_org(self, capsys):
        rc = main(
            ["run", "--organization", "disk", "--workload", "pim", "--duration", "15"]
        )
        assert rc == 0
        assert "disk" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "pim", "--duration", "15"])
        assert rc == 0
        out = capsys.readouterr().out
        for org in ("solid_state", "disk", "flash_disk", "flash_eip", "naive_flash"):
            assert org in out

    @pytest.mark.parametrize("eid", ["E1", "E2", "E5"])
    def test_experiment_prints_golden(self, capsys, eid):
        assert main(["experiments", eid]) == 0
        golden = os.path.join(GOLDEN_DIR, f"{eid}.txt")
        with open(golden, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read() + "\n"

    def test_experiment_lowercase(self, capsys):
        assert main(["experiments", "e2"]) == 0
        assert "[E2]" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        # One unknown id among known ones rejects the whole run up front.
        assert main(["experiments", "E1", "e99"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment(s) E99" in captured.err
        assert "[E1]" not in captured.out


class TestExperimentsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["experiments", "--all"])
        assert args.jobs == 1
        assert not args.profile

    def test_unknown_id(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parallel_output_identical_to_serial(self, capsys):
        assert main(["experiments", "E1", "E2"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiments", "E1", "E2", "-j", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "[E1]" in serial and "[E2]" in serial

    def test_profile_dumps_pstats(self, capsys, tmp_path):
        rc = main(["experiments", "E1", "--profile", "--profile-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "E1.pstats").exists()
        summary = (tmp_path / "E1.txt").read_text()
        assert "cumulative" in summary


class TestTraceDiffCommand:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        event = {"t": 1.0, "component": "flash-data", "op": "program",
                 "bytes": 4096, "latency_s": 5e-4, "outcome": "ok"}
        path.write_text(json.dumps(event) + "\n")
        return str(path)

    def _record(self, tmp_path, record):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        return str(path)

    def test_bench_matching_hub_passes(self, capsys, tmp_path, trace):
        bench = self._record(tmp_path, {"hub": {"flash_bytes_written": 4096}})
        rc = main(["trace-diff", trace, "--bench", bench, "--threshold", "0", "--check"])
        assert rc == 0

    def test_bench_hub_delta_fails_check(self, capsys, tmp_path, trace):
        bench = self._record(tmp_path, {"hub": {"flash_bytes_written": 8192}})
        assert main(["trace-diff", trace, "--bench", bench, "--check"]) == 1
        assert "flash_bytes_written" in capsys.readouterr().out

    @pytest.mark.parametrize("record", [{}, {"hub": {"replay_records": 1}}])
    def test_bench_without_shared_keys_exits_2(self, capsys, tmp_path, trace, record):
        bench = self._record(tmp_path, record)
        assert main(["trace-diff", trace, "--bench", bench, "--check"]) == 2
        assert "share no trace-comparable" in capsys.readouterr().err

    def test_bench_benchmark_manifest_exits_2(self, capsys, trace):
        # BENCHMARK.json describes the replay benchmark; it has no hub.
        manifest = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
        assert main(["trace-diff", trace, "--bench", manifest, "--check"]) == 2

    def test_bench_directory_exits_2(self, capsys, tmp_path, trace):
        assert main(["trace-diff", trace, "--bench", str(tmp_path), "--check"]) == 2


class TestInvalidTraceInput:
    """``analyze`` and ``trace-diff`` read through the validating reader:
    a bad line exits 2 and is named, never a traceback."""

    GOOD = {"t": 1.0, "component": "flash-data", "op": "program",
            "bytes": 4096, "latency_s": 5e-4, "outcome": "ok"}

    @pytest.fixture(params=["not-json", "no-bytes"])
    def bad_trace(self, request, tmp_path):
        if request.param == "not-json":
            bad, problem = "{not json", "line 2: not JSON"
        else:
            event = dict(self.GOOD)
            del event["bytes"]
            bad, problem = json.dumps(event), "line 2: missing required field 'bytes'"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + bad + "\n")
        return str(path), problem

    @pytest.mark.parametrize("command", ["analyze", "trace-diff"])
    def test_bad_line_exits_2_and_names_it(self, capsys, bad_trace, command):
        path, problem = bad_trace
        argv = ["analyze", path] if command == "analyze" else ["trace-diff", path, path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert problem in captured.err
        assert captured.out == ""


class TestObservedRuns:
    """Every --trace / --monitors command takes the one observed-run path."""

    def test_monitors_without_trace(self, capsys, tmp_path, monkeypatch):
        from repro.obs import runtime

        monkeypatch.chdir(tmp_path)
        assert main(["run", "--duration", "15", "--monitors"]) == 0
        assert "monitors ok" in capsys.readouterr().out
        assert os.listdir(tmp_path) == []
        assert runtime.get_tracer() is None

    def test_violation_fails_run_and_experiments_alike(self, capsys, monkeypatch):
        from repro.obs import monitor

        class AlwaysViolates(monitor.Monitor):
            name = "always-violates"

            def observe(self, record):
                pass

            def finish(self):
                self.violate(0.0, "planted")

        monkeypatch.setitem(monitor.MONITORS, AlwaysViolates.name, AlwaysViolates)
        headlines = []
        for argv, label in ((["run", "--duration", "15", "--monitors"], "run"),
                            (["experiments", "E1", "--monitors"], "E1")):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            headlines += [line for line in err if line.startswith("MONITOR VIOLATIONS")]
            assert f"  {label}: [always-violates] t=0.000000: planted" in err
        assert headlines == ["MONITOR VIOLATIONS: 1 across 1 job(s)"] * 2

    def test_run_trace_manifest_records_seed(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["run", "--seed", "3", "--duration", "15", "--trace", path]) == 0
        with open(path + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 3
        assert manifest["shards"] == 1
        # The finished trace holds only the merged output, no shard files.
        assert sorted(os.listdir(tmp_path)) == [
            "run.jsonl", "run.jsonl.chrome.json", "run.jsonl.manifest.json",
        ]

    def test_traced_run_makes_no_temp_directory(self, capsys, tmp_path,
                                                monkeypatch):
        """Job records reach the writer in memory, not via scratch files."""
        import tempfile

        def refuse(*_args, **_kwargs):
            raise AssertionError("a traced run created a temp directory")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        monkeypatch.setattr(tempfile, "TemporaryDirectory", refuse)
        path = str(tmp_path / "e.jsonl")
        assert main(["experiments", "E1", "--trace", path]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "e.jsonl", "e.jsonl.chrome.json", "e.jsonl.manifest.json",
        ]

    def test_removed_knobs_absent(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "E1"])
        (subcommands,) = [action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)]
        assert "experiment" not in subcommands.choices
        for name, sub in subcommands.choices.items():
            text = sub.format_help()
            assert "--trace-mode" not in text, name
            assert "--monitor " not in text and "--monitor NAME" not in text, name

    def test_one_tracer_construction_site(self):
        """Only ``_observed`` builds a Tracer in the CLI, and nothing in
        the package but ``obs/runtime.py`` calls ``set_tracer``."""
        import ast

        import repro
        import repro.cli

        def calls(tree, name):
            return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == name]

        with open(repro.cli.__file__, encoding="utf-8") as fh:
            cli_tree = ast.parse(fh.read())
        builders = [fn.name for fn in ast.walk(cli_tree)
                    if isinstance(fn, ast.FunctionDef) and calls(fn, "Tracer")]
        assert builders == ["_observed"]
        root = os.path.dirname(repro.__file__)
        offenders = []
        for folder, _dirs, files in os.walk(root):
            for fname in files:
                path = os.path.join(folder, fname)
                if not fname.endswith(".py") or path.endswith(os.path.join("obs", "runtime.py")):
                    continue
                with open(path, encoding="utf-8") as fh:
                    if calls(ast.parse(fh.read()), "set_tracer"):
                        offenders.append(os.path.relpath(path, root))
        assert offenders == []
