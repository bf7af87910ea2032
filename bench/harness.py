"""Run one workload for one seed and turn its passes into metrics.

A run is: one untimed warm-up pass, then timed passes until ``seconds``
of them have been measured (at least :data:`MIN_PASSES`); every pass
checks its own outputs.  With tracing on, half the time goes to untraced
passes — they are what the traced pass is compared against — then one
traced pass, then the workload's slow correctness checks, which the
driver's schedule cannot afford on every run.
"""

from __future__ import annotations

import os
import resource
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .checks import Gate, model_numbers
from .metrics import END_TO_END, PER_LAYER, median, quartiles

__all__ = ["PassSample", "Session", "Outcome", "measure", "MIN_PASSES",
           "WORK_ROOT"]

#: Fewest timed passes of a run, whatever ``seconds`` says.
MIN_PASSES = 3

#: Scratch space for service state, checkpoints and campaign records; the
#: benchmark writes nowhere outside its own directory.
WORK_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         ".work")


@dataclass
class PassSample:
    """What one timed pass over a workload's op list measured."""

    #: Host seconds of set-up paid inside the pass (world construction,
    #: server boot).
    setup_s: float
    #: Host seconds the pass's operations took.
    run_wall_s: float
    #: Units of work the pass completed (the workload names the unit).
    work: float
    #: Host milliseconds of each single operation.
    op_ms: List[float] = field(default_factory=list)


class Session:
    """One workload opened for one seed (see ``simload``, ``svcload``)."""

    #: What ``work_per_s`` counts for this workload.
    unit_of_work = "operations"
    #: sha256 over :attr:`records`, fixed by the first pass.
    digest: Optional[str] = None
    #: The first pass's campaign records: one per op for a simulator
    #: workload, the sweep's eight for a service one.
    records: List[Dict[str, Any]]

    def run_pass(self) -> PassSample:
        raise NotImplementedError

    def model(self) -> Dict[str, float]:
        """``delivery_ratio``, ``tx_per_bcast`` and ``sim_latency_s`` of
        the records this workload produced or served."""
        return model_numbers(self.records)

    def trace(self, baseline_wall: float, op_ms: Sequence[float],
              trace_out: Optional[str]) -> Dict[str, float]:
        """One traced pass and the workload's slow checks; per-layer
        metrics by name."""
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the session holds."""


@dataclass
class Outcome:
    workload: str
    seed: int
    traced: bool
    gate: Gate
    #: The metrics of this run: end-to-end ones, or per-layer when traced.
    metrics: Dict[str, float]
    #: Per-pass values behind each timing, for quartiles and ``compare``.
    samples: Dict[str, List[float]]
    passes: int
    digest: str
    unit_of_work: str

    def detail(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed,
            "traced": self.traced, "passes": self.passes,
            "sim_digest": self.digest, "unit_of_work": self.unit_of_work,
            "attempted": self.gate.attempted, "failed": self.gate.failed,
            "failures": self.gate.failures,
            "metrics": self.metrics,
            "quartiles": {name: quartiles(values)
                          for name, values in self.samples.items()},
            "samples": self.samples,
        }


def peak_rss_mb() -> float:
    """High-water resident memory of this process or of any child it has
    reaped (a service workload's server and that server's pool), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload: Any, seed: int, seconds: float, *,
            passes: Optional[int] = None, traced: bool = False,
            trace_out: Optional[str] = None) -> Outcome:
    """Run ``workload`` once; ``passes`` fixes the pass count instead of
    the time budget (the smoke test uses 1)."""
    gate = Gate()
    workdir = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    session = workload.open(seed, gate, workdir)
    try:
        session.run_pass()  # warm-up: caches, lazy imports, first checks
        budget = seconds / 2 if traced else seconds
        samples: List[PassSample] = []
        began = perf_counter()
        while True:
            samples.append(session.run_pass())
            if passes is not None:
                if len(samples) >= passes:
                    break
            elif (len(samples) >= MIN_PASSES
                  and perf_counter() - began >= budget):
                break
        rss = peak_rss_mb()

        per_pass = {
            "setup_s": [s.setup_s for s in samples],
            "run_wall_s": [s.run_wall_s for s in samples],
            "work_per_s": [s.work / s.run_wall_s for s in samples],
            "op_p50_ms": [median(s.op_ms) for s in samples],
        }
        op_ms = [value for s in samples for value in s.op_ms]
        if traced:
            layer = session.trace(median(per_pass["run_wall_s"]), op_ms,
                                  trace_out)
            metrics = {name: float(layer.get(name, 0.0))
                       for name in PER_LAYER}
            unknown = sorted(set(layer) - set(PER_LAYER))
            gate.check(not unknown,
                       f"per-layer metrics not in the table: {unknown}")
        else:
            model = session.model()
            metrics = {name: median(values)
                       for name, values in per_pass.items()}
            metrics.update({
                # over every single operation, not over pass medians
                "op_p50_ms": median(op_ms),
                "peak_rss_mb": rss,
                "delivery_ratio": model["delivery_ratio"],
                "tx_per_bcast": model["tx_per_bcast"],
            })
            metrics = {spec.name: metrics[spec.name] for spec in END_TO_END}
        return Outcome(workload=workload.name, seed=seed, traced=traced,
                       gate=gate, metrics=metrics, samples=per_pass,
                       passes=len(samples), digest=session.digest or "",
                       unit_of_work=session.unit_of_work)
    finally:
        session.close()
        shutil.rmtree(workdir, ignore_errors=True)
