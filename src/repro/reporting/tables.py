"""Plain-text table rendering for the benchmark harness and examples.

The benchmark harness regenerates each of the paper's tables and figures as
rows/series printed to stdout; this module provides the small amount of
formatting machinery they share so every bench emits consistent,
greppable output.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned ASCII table.

    Cells are stringified with ``str``; floats should be pre-formatted by
    the caller so each bench controls its own precision.
    """
    if not headers:
        raise ValueError("table needs at least one column")
    string_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for row in string_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns: {row}"
            )
    widths = [len(h) for h in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(headers))
    lines.append(render_row(["-" * w for w in widths]))
    lines.extend(render_row(row) for row in string_rows)
    return "\n".join(lines)


def percent(fraction: float, precision: int = 1) -> str:
    """Format a fraction as a percentage string (``0.51 -> '51.0%'``)."""
    return f"{fraction * 100:.{precision}f}%"


def spark_bar(fraction: float, width: int = 30, fill: str = "#") -> str:
    """A proportional ASCII bar for quick visual comparison in bench output."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    clamped = min(max(fraction, 0.0), 1.0)
    n = round(clamped * width)
    return fill * n + "." * (width - n)


def histogram_rows(bin_centers: Sequence[float], counts: Sequence[int]) -> List[tuple]:
    """Rows for printing a histogram: (center, count, bar)."""
    if len(bin_centers) != len(counts):
        raise ValueError("bin_centers and counts must have equal length")
    total = sum(counts)
    rows = []
    for center, count in zip(bin_centers, counts):
        share = count / total if total else 0.0
        rows.append((f"{center:.1f}", count, spark_bar(share)))
    return rows
