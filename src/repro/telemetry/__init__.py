"""repro.telemetry — the *wall-clock* side of observability.

The repo has two clocks and keeps them strictly apart:

* :mod:`repro.obs` observes **virtual time** — deterministic lifecycle
  spans and metric series inside a simulated run.  Its numbers are part
  of the determinism contract (byte-identical across workers, media,
  and resume).
* :mod:`repro.telemetry` (this package) observes **wall-clock time** —
  process-level counters/gauges/histograms for the campaign service,
  structured JSON logs and per-run resource accounting.  Its numbers
  are host-dependent by definition and therefore *never* participate in
  byte-identity comparisons, ``config_key`` hashes, or anything a
  simulation reads.

Pieces:

* :mod:`repro.telemetry.metrics` — :class:`TelemetryRegistry` with
  Counter/Gauge/Histogram, rendered in Prometheus text exposition
  format (``GET /metrics``).
* :mod:`repro.telemetry.log` — one stdlib-logging JSONL emitter with
  bound correlation fields (job id, config key) shared by the service
  scheduler, campaign runner, fuzz engine, and HTTP layer.
* :mod:`repro.telemetry.runtime` — the ``runtime`` block campaign
  records carry (wall seconds, peak RSS, kernel events/sec) and its
  sweep aggregation / stripping helpers.

Comparing two benchmark runs is ``python -m bench compare`` (the repo
benchmark's own comparer, bounds from ``BENCHMARK.json``).
"""

from .log import JsonFormatter, bound, configure, current_fields, event, get_logger
from .metrics import Counter, Gauge, Histogram, TelemetryRegistry
from .runtime import merge_runtime, peak_rss_kb, runtime_block, strip_runtime

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "TelemetryRegistry",
    "bound",
    "configure",
    "current_fields",
    "event",
    "get_logger",
    "merge_runtime",
    "peak_rss_kb",
    "runtime_block",
    "strip_runtime",
]
