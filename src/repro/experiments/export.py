"""Export experiment tables to machine-readable formats.

The text tables are for terminals; CSV and JSON exports let downstream
tooling (plotting scripts, regression dashboards) consume regenerated
figures directly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence, Union

from repro.experiments.report import Table


def table_to_csv(table: Table) -> str:
    """Render one table as CSV (title and notes become # comments)."""
    buffer = io.StringIO()
    buffer.write(f"# {table.title}\n")
    for note in table.notes:
        buffer.write(f"# {note}\n")
    writer = csv.writer(buffer)
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow(row)
    return buffer.getvalue()


def table_to_dict(table: Table) -> dict:
    """Represent one table as JSON-serializable primitives."""
    return {
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def tables_to_json(tables: Sequence[Table]) -> str:
    """Render one or more tables as a JSON document."""
    return json.dumps([table_to_dict(t) for t in tables], indent=2)


def tables_to_jsonl(tables: Sequence[Table]) -> str:
    """Render tables as JSON Lines: one compact object per table.

    The line-per-record shape matches the trace export of
    ``--trace-out`` (:meth:`repro.obs.recorder.TraceRecorder.
    export_jsonl`), so downstream tooling can stream either file with
    the same reader.
    """
    return "\n".join(
        json.dumps(table_to_dict(t), sort_keys=True) for t in tables
    )


def export_tables(
    tables: Union[Table, Sequence[Table]],
    fmt: str = "text",
) -> str:
    """Render tables in the requested format: text, csv, json, jsonl."""
    if isinstance(tables, Table):
        tables = [tables]
    tables = list(tables)
    if fmt == "text":
        return "\n\n".join(t.render() for t in tables)
    if fmt == "csv":
        return "\n".join(table_to_csv(t) for t in tables)
    if fmt == "json":
        return tables_to_json(tables)
    if fmt == "jsonl":
        return tables_to_jsonl(tables)
    raise ValueError(
        f"unknown export format {fmt!r} (use text, csv, json, or jsonl)"
    )

