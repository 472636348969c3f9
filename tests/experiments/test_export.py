"""Unit tests for table export."""

import json

import pytest

from repro.experiments.cli import emit
from repro.experiments.export import export_tables, table_to_csv, tables_to_json
from repro.experiments.report import Table


@pytest.fixture
def table():
    table = Table(title="Demo", headers=["x", "y"], notes=["a note"])
    table.add_row(1, 2.5)
    table.add_row(2, 5.0)
    return table


class TestCsv:
    def test_csv_contains_headers_rows_and_comments(self, table):
        text = table_to_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "# Demo"
        assert lines[1] == "# a note"
        assert lines[2] == "x,y"
        assert lines[3] == "1,2.5"


class TestJson:
    def test_json_round_trip(self, table):
        (loaded,) = json.loads(tables_to_json([table]))
        assert loaded["title"] == "Demo"
        assert loaded["rows"] == [list(row) for row in table.rows]

    def test_json_is_valid(self, table):
        json.loads(tables_to_json([table]))


class TestDispatch:
    def test_text_format(self, table):
        assert "Demo" in export_tables(table, "text")

    def test_single_table_accepted(self, table):
        assert "x,y" in export_tables(table, "csv")

    def test_unknown_format_rejected(self, table):
        with pytest.raises(ValueError):
            export_tables(table, "xml")


class TestCliIntegration:
    def test_cli_csv_output_to_file(self, tmp_path):
        from repro.experiments import cli

        out = tmp_path / "fig1.csv"
        assert cli.main(
            ["fig1", "--days", "2", "--quiet", "--format", "csv",
             "--output", str(out)]
        ) == 0
        content = out.read_text()
        assert content.startswith("# Figure 1")
        assert "Max" in content

    def test_cli_json_output(self, capsys):
        from repro.experiments import cli

        assert cli.main(["fig2", "--days", "2", "--quiet", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["title"].startswith("Figure 2")

    def test_cli_validate_listed(self, capsys):
        from repro.experiments import cli

        cli.main(["list"])
        assert "validate" in capsys.readouterr().out


class TestJsonl:
    def test_one_compact_object_per_table(self, table):
        from repro.experiments.export import tables_to_jsonl

        rendered = tables_to_jsonl([table, table])
        lines = rendered.splitlines()
        assert len(lines) == 2
        for line in lines:
            entry = json.loads(line)
            assert entry["title"] == "Demo"
            assert entry["headers"] == ["x", "y"]

    def test_export_tables_jsonl(self, table):
        rendered = export_tables(table, "jsonl")
        assert json.loads(rendered)["notes"] == ["a note"]

    def test_unknown_format_message_lists_jsonl(self, table):
        with pytest.raises(ValueError, match="jsonl"):
            export_tables(table, "yaml")


class TestWriteErrors:
    def test_missing_directory_raises_export_error(self, table, tmp_path):
        from repro.errors import ExportError

        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(ExportError, match="cannot write output"):
            emit(export_tables(table, "csv"), target)

    def test_unwritable_target_raises_export_error(self, table, tmp_path):
        from repro.errors import ExportError

        with pytest.raises(ExportError):
            emit(export_tables(table, "csv"), tmp_path)  # a directory
