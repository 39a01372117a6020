"""Plain-text table rendering for experiment output.

Benchmarks print the same rows the paper's claims are stated in, so
EXPERIMENTS.md can quote them directly.  No dependencies, no color --
just aligned monospace tables.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def _fmt(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, int):
        return f"{cell:,}"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_kv(pairs: Sequence, title: str = "") -> str:
    """Render key/value pairs, one per line."""
    width = max((len(str(k)) for k, _ in pairs), default=0)
    lines = [title] if title else []
    for key, value in pairs:
        lines.append(f"{str(key).ljust(width)} : {_fmt(value)}")
    return "\n".join(lines)


def human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} GB"  # pragma: no cover


def human_seconds(s: float) -> str:
    if s == float("inf"):
        return "inf"
    if s < 1e-3:
        return f"{s * 1e6:.1f} us"
    if s < 1.0:
        return f"{s * 1e3:.2f} ms"
    if s < 120.0:
        return f"{s:.2f} s"
    if s < 86_400.0:
        return f"{s / 3600.0:.2f} h"
    if s < 86_400.0 * 365.25 * 3:
        return f"{s / 86_400.0:.1f} days"
    return f"{s / (86_400.0 * 365.25):.1f} years"
