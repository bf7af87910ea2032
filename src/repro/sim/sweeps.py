"""Seeded replication of sweep points.

The paper's figures are parameter sweeps (n on the x-axis, or the mute
fraction).  A sweep's grid is a :class:`repro.service.SweepSpec`
(protocol × value × seed), run through ``run_many`` or a ``Campaign``;
:func:`average_results` folds each point's replicate seeds into the one
result the figure plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..obs import merge_payloads
from ..telemetry.runtime import merge_runtime
from .experiment import ExperimentResult

__all__ = ["average_results"]


def average_results(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Element-wise average of replicated runs (None-aware for latencies)."""
    if not results:
        raise ValueError("nothing to average")
    if len(results) == 1:
        return results[0]
    first = results[0]

    def avg(values: List[Optional[float]]) -> Optional[float]:
        present = [v for v in values if v is not None]
        return sum(present) / len(present) if present else None

    physical: Dict[str, float] = {}
    for key in {k for r in results for k in r.physical}:
        physical[key] = sum(r.physical.get(key, 0.0)
                            for r in results) / len(results)
    energy: Dict[str, float] = {}
    for key in {k for r in results for k in r.energy}:
        energy[key] = sum(r.energy.get(key, 0.0)
                          for r in results) / len(results)
    # Profiles aggregate (sum) across replicates: total cost over the
    # replicated runs, not a per-run mean — counts stay integers.
    profile = None
    profiled = [r.profile for r in results if r.profile]
    if profiled:
        profile = {}
        for item in profiled:
            for phase, stats in item.items():
                bucket = profile.setdefault(
                    phase, {"count": 0, "seconds": 0.0})
                bucket["count"] += stats.get("count", 0)
                bucket["seconds"] += stats.get("seconds", 0.0)
    # Observability payloads average (metric series element-wise, counters
    # summed); span streams are per-run artifacts and do not survive
    # averaging — see :func:`repro.obs.merge_payloads`.
    trace = None
    traced = [r.trace for r in results if r.trace]
    if traced:
        trace = merge_payloads(traced)
    return ExperimentResult(
        protocol=first.protocol,
        n=first.n,
        byzantine=first.byzantine,
        broadcasts=round(sum(r.broadcasts for r in results) / len(results)),
        delivery_ratio=sum(r.delivery_ratio
                           for r in results) / len(results),
        complete_fraction=sum(r.complete_fraction
                              for r in results) / len(results),
        mean_latency=avg([r.mean_latency for r in results]),
        max_latency=avg([r.max_latency for r in results]),
        mean_completion_latency=avg(
            [r.mean_completion_latency for r in results]),
        physical=physical,
        energy=energy,
        overlay_quality=first.overlay_quality,
        sim_time=sum(r.sim_time for r in results) / len(results),
        chaos_events=round(sum(r.chaos_events
                               for r in results) / len(results)),
        invariant_violations=sum(r.invariant_violations for r in results),
        violations=[v for r in results for v in r.violations],
        profile=profile,
        trace=trace,
        # Wall-clock accounting sums across replicates (total cost of the
        # sweep point), peak RSS takes the max — see
        # :func:`repro.telemetry.runtime.merge_runtime`.
        runtime=merge_runtime([r.runtime for r in results]),
    )
