"""Unit tests for the plain-text reporting."""

import pytest

from repro.experiments.report import Table, render_table


class TestTable:
    def test_add_row_and_render(self):
        table = Table(title="T", headers=["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "T" in text
        assert "2.50" in text

    def test_row_width_checked(self):
        table = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_extraction(self):
        table = Table(title="T", headers=["x", "y"])
        table.add_row(1, 10.0)
        table.add_row(2, 20.0)
        assert table.column("y") == [10.0, 20.0]

    def test_notes_rendered(self):
        table = Table(title="T", headers=["a"], notes=["hello note"])
        assert "# hello note" in table.render()

    def test_alignment(self):
        text = render_table("T", ["col"], [[1], [100]])
        lines = text.splitlines()
        assert len(lines[2]) == len(lines[4])  # header row vs data row width


class TestObsSummaryTable:
    def test_phases_then_counters(self):
        from repro.experiments.report import obs_summary_table

        table = obs_summary_table(
            {
                "phases": {"variant": {"calls": 3, "seconds": 1.23456}},
                "counters": {"runs": 3, "events": 99},
            }
        )
        assert table.headers == ["metric", "calls", "seconds"]
        assert table.rows[0] == ["variant", 3, "1.2346"]
        assert ["runs", 3, "-"] in table.rows
        assert ["events", 99, "-"] in table.rows

    def test_empty_summary_notes_it(self):
        from repro.experiments.report import obs_summary_table

        table = obs_summary_table({})
        assert table.rows == []
        assert table.notes  # says nothing was recorded
        assert "recorded" in table.notes[0]
