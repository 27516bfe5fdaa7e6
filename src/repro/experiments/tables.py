"""Plain-text table rendering shared by the experiment drivers."""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned ASCII table (floats get 4 significant digits)."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    materialized: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, text in enumerate(row):
            widths[index] = max(widths[index], len(text))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialized:
        lines.append(" | ".join(t.ljust(w) for t, w in zip(row, widths)))
    return "\n".join(lines)
