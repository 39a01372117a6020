"""Unit tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


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

    def test_experiment_e1(self, capsys):
        rc = main(["experiment", "E1"])
        assert rc == 0
        assert "[E1]" in capsys.readouterr().out

    def test_experiment_lowercase(self, capsys):
        assert main(["experiment", "e2"]) == 0
        assert "[E2]" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


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
