"""Plain-text rendering of experiment results as tables.

The harness prints the same rows/series the paper's figures plot, plus a
short "paper says / we measured" comparison line per experiment (the
figure's ``notes``).
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width table with right-aligned numeric columns."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(
            cell.rjust(widths[i]) if _numeric(cell) else
            cell.ljust(widths[i])
            for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def _numeric(cell: str) -> bool:
    stripped = cell.replace("%", "").replace(",", "").replace("-", "") \
        .replace(".", "").replace("+", "")
    return stripped.isdigit() if stripped else False
