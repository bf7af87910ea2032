"""Seeded replication of sweep points.

The paper's figures are parameter sweeps (n on the x-axis, or the mute
fraction).  A sweep's grid is a :class:`repro.service.SweepSpec`
(protocol × value × seed), run through ``run_many`` or a ``Campaign``;
:func:`average_results` folds each point's replicate seeds into the one
result the figure plots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .experiment import ExperimentResult

__all__ = ["average_results"]


def average_results(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Element-wise average of replicated runs (None-aware for latencies).

    Per-run artifacts do not average: with several replicates, the
    result's ``profile``, ``trace`` and ``runtime`` are None.
    """
    if not results:
        raise ValueError("nothing to average")
    if len(results) == 1:
        return results[0]
    first = results[0]

    def mean(values: Iterable[float]) -> float:
        return sum(values) / len(results)

    def avg(values: List[Optional[float]]) -> Optional[float]:
        present = [v for v in values if v is not None]
        return sum(present) / len(present) if present else None

    def mean_map(maps: List[Dict[str, float]]) -> Dict[str, float]:
        return {key: mean(m.get(key, 0.0) for m in maps)
                for key in {k for m in maps for k in m}}

    return ExperimentResult(
        protocol=first.protocol,
        n=first.n,
        byzantine=first.byzantine,
        broadcasts=round(mean(r.broadcasts for r in results)),
        delivery_ratio=mean(r.delivery_ratio for r in results),
        complete_fraction=mean(r.complete_fraction for r in results),
        mean_latency=avg([r.mean_latency for r in results]),
        max_latency=avg([r.max_latency for r in results]),
        mean_completion_latency=avg(
            [r.mean_completion_latency for r in results]),
        physical=mean_map([r.physical for r in results]),
        energy=mean_map([r.energy for r in results]),
        overlay_quality=first.overlay_quality,
        sim_time=mean(r.sim_time for r in results),
        chaos_events=round(mean(r.chaos_events for r in results)),
        invariant_violations=sum(r.invariant_violations for r in results),
        violations=[v for r in results for v in r.violations],
    )
