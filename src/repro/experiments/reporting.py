"""Plain-text rendering of experiment results.

Every table/figure function in :mod:`repro.experiments.tables` and
:mod:`repro.experiments.figures` returns plain data (lists of dictionaries or
series); this module turns them into aligned text tables so the benchmark
harness can print output directly comparable with the paper's tables.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_precision: int = 4,
) -> str:
    """Render a list of row dictionaries as an aligned text table.

    Parameters
    ----------
    rows:
        The data.  Missing cells are rendered as ``-``.
    columns:
        Column order; defaults to the union of keys in first-seen order.
    title:
        Optional title printed above the table.
    float_precision:
        Number of decimal places used for floats.
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append([_render_cell(row.get(col), float_precision) for col in columns])
    widths = [len(str(col)) for col in columns]
    for rendered in rendered_rows:
        for index, cell in enumerate(rendered):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered)))
    return "\n".join(lines)


def _render_cell(value: object, float_precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_precision}f}"
    return str(value)
