"""Plain-text rendering of experiment results.

The paper's figures are line plots; in a terminal we report the same
data as tables (one row per x value, one column per curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Table:
    """A titled table of stringifiable cells."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[object]:
        """Extract one column by header name."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        return render_table(self.title, self.headers, self.rows, self.notes)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    for note in notes:
        lines.append(f"# {note}")
    return "\n".join(lines)


def obs_summary_table(summary: dict) -> Table:
    """Render an observability snapshot as a :class:`Table`.

    Takes the plain mapping produced by :func:`repro.obs.summarize_obs`
    (``{"phases": {name: {"calls", "seconds"}}, "counters": {...}}``)
    rather than importing the obs layer, so rendering stays usable on
    any JSON round-tripped summary. Phase rows first (most expensive
    first, as summarize_obs orders them), then counters.
    """
    table = Table(
        title="Observability summary",
        headers=["metric", "calls", "seconds"],
    )
    for name, entry in summary.get("phases", {}).items():
        table.add_row(name, int(entry["calls"]), f"{float(entry['seconds']):.4f}")
    for name, value in summary.get("counters", {}).items():
        table.add_row(name, int(value), "-")
    if not table.rows:
        table.notes.append("nothing recorded (probes disabled?)")
    return table

