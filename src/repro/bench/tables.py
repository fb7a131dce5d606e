"""Summary-statistic and markdown-table helpers for the registry trend
reports of ``repro bench report`` (:mod:`repro.evalhub.report`)."""

from __future__ import annotations

import math
from typing import Any, Sequence


def geometric_mean(values) -> float:
    """Geomean of the positive entries (zeros/negatives dropped)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-flavoured markdown table (cells via :func:`_cell`)."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "---|" * len(headers),
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(x) for x in row) + " |")
    return "\n".join(lines)
