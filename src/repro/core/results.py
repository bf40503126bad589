"""Result tables: the uniform output format of the experiment harness.

Every experiment returns a :class:`ResultTable`; benchmarks print them so
regenerating a paper table is ``print(run_table3().format())``.

Tables are plain data: cells are coerced to native Python scalars at
:meth:`~ResultTable.add_row` time (numpy scalars become ``int``/``float``),
so every table pickles cheaply across process boundaries — the campaign
runner (`repro.campaign`) ships them between workers and caches them on
disk — and two tables from identically-seeded runs compare equal with
``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List


def _plain_cell(value: Any) -> Any:
    """Coerce numpy (or other ``.item()``-bearing) scalars to native Python."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            coerced = item()
        except (TypeError, ValueError):
            return value
        if isinstance(coerced, (bool, int, float, str)):
            return coerced
    return value


@dataclass
class ResultTable:
    """A titled grid of results with optional paper-value columns."""

    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.title}: row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append([_plain_cell(v) for v in values])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @classmethod
    def from_record(cls, record: dict) -> "ResultTable":
        """Rebuild a table from a ``repro.telemetry/v1`` ``result`` record
        (the inverse of :func:`repro.telemetry.result_record`)."""
        return cls(
            record["title"],
            list(record["columns"]),
            [list(row) for row in record["rows"]],
            list(record.get("notes", [])),
        )

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> List[Any]:
        index = self.columns.index(key_column)
        for row in self.rows:
            if row[index] == key:
                return row
        raise KeyError(f"{self.title}: no row with {key_column}={key!r}")

    def cell(self, key_column: str, key: Any, value_column: str) -> Any:
        return self.row_by(key_column, key)[self.columns.index(value_column)]

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 10:
                return f"{value:.1f}"
            return f"{value:.3g}"
        return str(value)

    def format(self) -> str:
        """ASCII rendering with aligned columns."""
        cells = [self.columns] + [[self._fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)
