"""Plain-text and Markdown table rendering for experiment output.

The benchmark harness prints the same rows the paper reports; these
helpers keep that output aligned and diff-friendly without pulling in a
plotting or dataframe dependency.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_cell", "render_table", "render_markdown_table"]


def format_cell(value: Any) -> str:
    """Human formatting: floats to 4 significant digits, rest via str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == float("inf"):
            return "inf"
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _stringify(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[list[str]]:
    table = [[format_cell(cell) for cell in row] for row in rows]
    for row in table:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
    return table


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Aligned monospace table (for terminal output)."""
    table = _stringify(headers, rows)
    widths = [len(h) for h in headers]
    for row in table:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """GitHub-flavored Markdown table (for ``repro reproduce --out``)."""
    table = _stringify(headers, rows)
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in table:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
