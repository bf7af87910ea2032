"""Causal observability for the simulation stack (``repro.obs``).

Three pieces, all deterministic and zero-cost when disabled:

* :mod:`repro.obs.context` — lifecycle :class:`Span` records with ids
  derived from ``(message_id, node, occurrence)``, collected by the
  process-wide :data:`ACTIVE` context the instrumented seams consult
  (the :mod:`repro.profiling` pattern);
* :mod:`repro.obs.registry` / :mod:`repro.obs.sampler` — a
  virtual-time metric sampler feeding time series into campaign records
  (the per-phase ``spans.<phase>`` tallies ride beside them);
* :mod:`repro.obs.export` / :mod:`repro.obs.analyze` — JSONL / CSV /
  Chrome ``trace_event`` exporters and the causal-path, latency-bound
  and timeline analyzers behind the ``repro trace`` CLI.

Enable per experiment with ``ExperimentConfig(observe=ObsConfig())`` or
``repro run --observe --trace-out trace.jsonl``.  The span stream is an
observed run's only event stream: ``result.trace``, ``--trace-out``,
``repro trace`` and campaign records all read it, and oracle violations
point into it by span id.  A network built by hand
(:class:`repro.sim.NetworkBuilder`) is observed the same way, with a
:func:`session` around its run.  Wall-clock Counter/Gauge/Histogram
instruments live in :mod:`repro.telemetry.metrics`.
"""

from .analyze import (causal_chain, latency_report, message_ids, parse_msg,
                      timeline, trace_path)
from .context import (PHASES, ObsConfig, ObsContext, Span, activate, active,
                      deactivate, msg_key, msg_of, session, span_id)
from .coverage import CoverageMap, bucketize, trace_coverage

# NOTE: the live ``ACTIVE`` global is deliberately NOT re-exported here —
# a ``from .context import ACTIVE`` would snapshot it by value and never
# see later (de)activations.  Instrumented modules import the context
# module itself (``from ..obs import context as obs``) and read
# ``obs.ACTIVE``; external callers use :func:`active`.
from .export import (chrome_trace, load_trace, series_to_csv,
                     validate_chrome, write_chrome, write_trace)
from .registry import MetricRegistry
from .sampler import MetricSampler

__all__ = [
    "PHASES",
    "ObsConfig",
    "Span",
    "ObsContext",
    "activate",
    "deactivate",
    "active",
    "session",
    "msg_of",
    "msg_key",
    "span_id",
    "CoverageMap",
    "bucketize",
    "trace_coverage",
    "MetricRegistry",
    "MetricSampler",
    "write_trace",
    "load_trace",
    "series_to_csv",
    "chrome_trace",
    "write_chrome",
    "validate_chrome",
    "parse_msg",
    "message_ids",
    "trace_path",
    "causal_chain",
    "latency_report",
    "timeline",
]
