"""Dependency-free ASCII charts for sweep results.

Terminal-friendly rendering so examples and benches can show *shape*
(trends, crossovers) without matplotlib: horizontal bar charts and
multi-series sparkline grids.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["bar_chart", "spark_line", "series_chart"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def bar_chart(labels: Sequence[str], values: Sequence[float], *,
              width: int = 40, unit: str = "") -> str:
    """Horizontal bars scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return "(no data)"
    peak = max(values)
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = 0 if peak <= 0 else round(width * value / peak)
        bar = "█" * filled
        suffix = f" {value:g}{unit}"
        lines.append(f"{label.rjust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)


def spark_line(values: Sequence[float]) -> str:
    """One-row unicode sparkline."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_LEVELS[0] * len(values)
    span = high - low
    return "".join(
        _SPARK_LEVELS[min(len(_SPARK_LEVELS) - 1,
                          int((v - low) / span * len(_SPARK_LEVELS)))]
        for v in values)


def series_chart(xs: Sequence[object],
                 series: Dict[str, Sequence[Optional[float]]], *,
                 unit: str = "") -> str:
    """Multiple named series over shared x values: sparkline + endpoints.

    Missing points (None) break the sparkline with a space.
    """
    if not series:
        return "(no series)"
    name_width = max(len(name) for name in series)
    lines = [f"x: {', '.join(str(x) for x in xs)}"]
    for name, values in series.items():
        if len(values) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")
        present = [v for v in values if v is not None]
        if not present:
            lines.append(f"{name.rjust(name_width)}  (no data)")
            continue
        spark = ""
        low, high = min(present), max(present)
        span = (high - low) or 1.0
        for value in values:
            if value is None:
                spark += " "
            else:
                index = min(len(_SPARK_LEVELS) - 1,
                            int((value - low) / span * len(_SPARK_LEVELS)))
                spark += _SPARK_LEVELS[index]
        lines.append(f"{name.rjust(name_width)}  {spark}  "
                     f"[{present[0]:g} → {present[-1]:g}{unit}]")
    return "\n".join(lines)
