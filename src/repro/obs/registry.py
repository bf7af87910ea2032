"""Sampled metric series and the sweep-level payload merge.

A :class:`MetricRegistry` holds the virtual-time series produced by the
periodic sampler (:class:`repro.obs.MetricSampler`): one timestamp and
one row of values per tick.  It is plain picklable state — no locks, no
wall clock — so it checkpoints and resumes with the experiment world and
its exports stay byte-identical across worker counts and media.  The
wall-clock Counter/Gauge/Histogram instruments live in
:mod:`repro.telemetry.metrics`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

__all__ = ["MetricRegistry", "merge_payloads"]


class MetricRegistry:
    """The sampled time series of one observed run."""

    def __init__(self):
        #: Sample timestamps (virtual time), one per sampler tick.
        self.sample_times: List[float] = []
        #: Column name -> one value per sampler tick.
        self.series: Dict[str, List[float]] = {}

    def record_sample(self, time: float,
                      values: Dict[str, float]) -> None:
        """Append one sampler tick.  Columns are kept rectangular: a key
        absent from an earlier tick is back-filled with zeros so every
        column has one value per entry of :attr:`sample_times`."""
        ticks = len(self.sample_times)
        self.sample_times.append(time)
        for key, value in values.items():
            column = self.series.get(key)
            if column is None:
                column = self.series[key] = [0.0] * ticks
            column.append(value)
        for key, column in self.series.items():
            if len(column) <= ticks:
                column.append(0.0)

    def series_dict(self) -> Dict[str, List[float]]:
        """The sampled series with the timestamp column first."""
        out: Dict[str, List[float]] = {"time": list(self.sample_times)}
        for key in sorted(self.series):
            out[key] = list(self.series[key])
        return out


def merge_payloads(payloads: Iterable[Dict[str, Any]]
                   ) -> Optional[Dict[str, Any]]:
    """Aggregate ``ExperimentResult.trace`` payloads across sweep
    replicates: series are averaged element-wise (truncated to the
    shortest replicate, like the result averages), counters and span
    counts are summed — counters are totals, so summing mirrors how
    profiles aggregate in ``average_results``."""
    payloads = [p for p in payloads if p]
    if not payloads:
        return None
    series_keys = sorted({key for p in payloads
                          for key in (p.get("series") or {})})
    merged_series: Dict[str, List[float]] = {}
    for key in series_keys:
        columns = [p.get("series", {}).get(key, []) for p in payloads]
        length = min((len(c) for c in columns), default=0)
        merged_series[key] = [
            sum(column[i] for column in columns) / len(columns)
            for i in range(length)]
    counters: Dict[str, int] = {}
    for payload in payloads:
        for name, value in (payload.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    return {
        "meta": dict(payloads[0].get("meta") or {}),
        "replicates": len(payloads),
        "span_count": sum(p.get("span_count", 0) for p in payloads),
        "dropped_spans": sum(p.get("dropped_spans", 0) for p in payloads),
        "series": merged_series,
        "counters": {name: counters[name] for name in sorted(counters)},
    }
