"""Parameter sweeps with seeded replication.

The paper's figures are parameter sweeps (n on the x-axis, or the mute
fraction).  ``run_sweep`` runs an experiment factory over a parameter list,
optionally replicating each point over several seeds and averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import merge_payloads
from ..telemetry.runtime import merge_runtime
from .checkpoint import CheckpointConfig
from .experiment import ExperimentConfig, ExperimentResult, run_many

__all__ = ["SweepPoint", "run_sweep", "average_results"]


@dataclass
class SweepPoint:
    """One x-axis point: the parameter value and its (averaged) result."""

    parameter: object
    result: ExperimentResult
    replicates: int = 1


def run_sweep(parameters: Sequence[object],
              make_config: Callable[[object], ExperimentConfig],
              seeds: Sequence[int] = (1,),
              workers: int = 1,
              checkpoint_every: Optional[float] = None,
              checkpoint_dir: str = ".repro-checkpoints") -> List[SweepPoint]:
    """Run ``make_config(parameter)`` for every parameter × seed.

    Each parameter's results across seeds are averaged into one point.
    The parameter × seed grid is one task list for :func:`run_many`, so
    ``workers > 1`` spreads it over a process pool (each simulation is
    self-seeded, so the averaged points are identical to a serial run).

    With ``checkpoint_every`` each run snapshots itself every that many
    virtual seconds into ``checkpoint_dir`` and auto-resumes from an
    existing snapshot (a killed worker's leftovers) — see
    :mod:`repro.sim.checkpoint`.  Points are identical either way.
    """
    tasks: List[ExperimentConfig] = []
    for parameter in parameters:
        for seed in seeds:
            config = make_config(parameter)
            config = replace(config, scenario=config.scenario.with_seed(seed))
            if checkpoint_every is not None:
                config = replace(config, checkpoint=CheckpointConfig(
                    every=checkpoint_every, directory=checkpoint_dir))
            tasks.append(config)
    flat = run_many(tasks, workers=workers)
    group = len(seeds)
    return [SweepPoint(parameter=parameter,
                       result=average_results(flat[i * group:(i + 1) * group]),
                       replicates=group)
            for i, parameter in enumerate(parameters)]


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
