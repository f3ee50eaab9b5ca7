"""Paper-style ASCII series tables.

Each figure panel becomes a small table: one row per x-axis value, one
column per plotted series — the same rows/series the paper's gnuplot
panels show.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[Any],
    series: dict[str, Sequence[float]],
    unit: str = "",
) -> str:
    """Render one panel as a table string."""
    headers = [x_label] + [
        f"{name} ({unit})" if unit else name for name in series
    ]
    rows = []
    for i, x in enumerate(x_values):
        row = [str(x)]
        for values in series.values():
            v = values[i]
            row.append(_fmt(v))
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows))
        for c in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(len(row))))
    return "\n".join(lines)


def _fmt(v: float) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:.0f}"
    if abs(v) >= 1:
        return f"{v:.2f}"
    return f"{v:.4f}"
