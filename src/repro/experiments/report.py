"""Plain-text report rendering for experiment harness outputs."""

from __future__ import annotations

from typing import Sequence


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None,
                 float_format: str = "{:.2f}") -> str:
    """Render a list of dict rows as an aligned text table.

    Args:
        rows: the rows to render; missing keys render as empty cells.
        columns: column order; defaults to the keys of the first row.
        float_format: format applied to float values.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        if isinstance(value, (list, dict)):
            return f"<{type(value).__name__}:{len(value)}>"
        return str(value)

    table = [[render(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in table))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i])
                               for i in range(len(columns)))
                     for line in table)
    return "\n".join([header, separator, body])
