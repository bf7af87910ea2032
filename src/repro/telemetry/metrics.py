"""Process-level (wall-clock) metrics with Prometheus text exposition.

This is deliberately **not** :class:`repro.obs.registry.MetricRegistry`:
that one samples *virtual* time inside a deterministic simulation and
its output is part of the byte-identity contract.  This registry counts
what the *process* does — jobs, queue depth, chunk wall-times, kernel
events per wall second — and is served at ``GET /metrics`` in the
Prometheus text exposition format (version 0.0.4), hand-rolled so the
repo stays dependency-free.

Thread-safety: every mutation and the renderer take the registry lock —
HTTP handler threads scrape while the scheduler thread updates.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds) — tuned for experiment chunks,
#: which range from sub-second smoke configs to multi-minute sweeps.
DEFAULT_BUCKETS = (0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """A value in exposition syntax: integers bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared bookkeeping: name, help text, owning-registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = _check_name(name)
        self.help = help
        self._lock = lock

    def render(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (events, jobs, seconds of work)."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


class Gauge(_Metric):
    """A value that goes both ways (queue depth, busy flag, rates)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


class Histogram(_Metric):
    """Cumulative-bucket histogram of observed values (chunk wall-time).

    Rendered Prometheus-style: ``<name>_bucket{le="..."}`` cumulative
    counts ending at ``le="+Inf"``, plus ``<name>_sum`` / ``<name>_count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {buckets}")
        self.bounds = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def render(self) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.bounds, self._counts):
            cumulative = count  # counts are already cumulative per-bucket
            lines.append(f'{self.name}_bucket{{le="{_format_value(bound)}"}}'
                         f" {cumulative}")
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class TelemetryRegistry:
    """A named family of process metrics with one exposition document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.kind}")
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help, self._lock))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help, self._lock))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help, self._lock,
                                        buckets=buckets))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        out: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    safe = metric.help.replace("\\", "\\\\").replace(
                        "\n", "\\n")
                    out.append(f"# HELP {name} {safe}")
                out.append(f"# TYPE {name} {metric.kind}")
                out.extend(metric.render())
        return "\n".join(out) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view (dashboards, tests): scalar metrics map to
        their value, histograms to ``{"count", "sum"}``."""
        with self._lock:
            snap: Dict[str, Any] = {}
            for name, metric in self._metrics.items():
                if isinstance(metric, Histogram):
                    snap[name] = {"count": metric._count,
                                  "sum": metric._sum}
                else:
                    snap[name] = metric._value  # type: ignore[attr-defined]
            return snap
