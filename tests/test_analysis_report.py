"""Unit tests for the report formatting helpers."""

import pytest

from repro.analysis import format_kv, format_table, human_bytes, human_seconds
from repro.analysis.experiments.base import ExperimentResult


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len({len(l) for l in lines}) <= 2  # consistent width

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_none_renders_dash(self):
        out = format_table(["x"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["x"], [[0.000123], [1234.5], [3.14159]])
        assert "0.000123" in out
        assert "3.14" in out

    def test_int_thousands_separator(self):
        out = format_table(["x"], [[1234567]])
        assert "1,234,567" in out


class TestFormatKV:
    def test_alignment(self):
        out = format_kv([("a", 1), ("longer", 2)])
        lines = out.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_empty(self):
        assert format_kv([]) == ""


class TestHumanUnits:
    def test_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KB"
        assert human_bytes(3 * 1024 * 1024) == "3.0 MB"

    def test_seconds(self):
        assert "us" in human_seconds(5e-6)
        assert "ms" in human_seconds(5e-3)
        assert "s" in human_seconds(5.0)
        assert "h" in human_seconds(7200)
        assert "days" in human_seconds(3 * 86400)
        assert "years" in human_seconds(5 * 365.25 * 86400)
        assert human_seconds(float("inf")) == "inf"


class TestExperimentResult:
    def test_render_contains_notes(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="test",
            headers=["a"],
            rows=[[1]],
            notes=["something important"],
        )
        out = result.render()
        assert "[EX] test" in out
        assert "note: something important" in out

    def test_render_prints_further_tables_after_notes(self):
        result = ExperimentResult(
            "EX", "t", ["a"], [[1]], notes=["n"],
            tables=[(["b"], [[2]]), (["c"], [[3]])],
        )
        assert result.render() == "\n".join([
            format_table(["a"], [[1]], title="[EX] t"),
            "  note: n",
            "",
            format_table(["b"], [[2]]),
            "",
            format_table(["c"], [[3]]),
        ])

    def test_row_dicts(self):
        result = ExperimentResult("EX", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.row_dicts() == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
