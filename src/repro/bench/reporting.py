"""Paper-style rendering of experiment rows."""

from __future__ import annotations

from typing import Callable

__all__ = ["format_table", "format_series", "titled_table"]


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: list[dict], columns: list[str] | None = None,
                 title: str | None = None) -> str:
    """Render rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    columns = columns if columns is not None else list(rows[0].keys())
    cells = [[_format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(" | ".join(cell.rjust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def titled_table(title: str, hide: tuple[str, ...] = ()
                 ) -> Callable[[list[dict], dict], str]:
    """A ``render(rows, params)`` for a result that is one table.

    ``title`` is formatted with the run's parameters (``"... (N={n})"``);
    columns named in ``hide`` stay in the rows but out of the text.
    """
    def render(rows: list[dict], params: dict) -> str:
        columns = [column for column in rows[0] if column not in hide]
        return format_table(rows, columns=columns,
                            title=title.format(**params))
    return render


def format_series(rows: list[dict], x: str, y: str,
                  title: str | None = None, width: int = 50) -> str:
    """Render one (x, y) series as an ASCII bar chart."""
    if not rows:
        return "(no data)"
    peak = max(abs(float(row[y])) for row in rows) or 1.0
    lines = [title] if title else []
    for row in rows:
        value = float(row[y])
        bar = "#" * max(1, round(width * value / peak))
        lines.append(f"  {x}={_format_cell(row[x]):>8} | {bar} "
                     f"{_format_cell(value)}")
    return "\n".join(lines)

