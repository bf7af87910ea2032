"""Fuzz targets and the content-addressed reproducer corpus.

A :class:`TargetSpec` pins everything about a fuzzed system *except* the
fault schedule: world size, seed, protocol, workload shape, oracle
tightness, which runner executes it, and the delivery threshold below
which a run counts as degraded.  Given a target, a
:class:`~repro.chaos.FaultSchedule` fully determines the run — which is
what makes corpus entries replayable years later.

A :class:`CorpusEntry` is one finding: the target, the (shrunk) schedule,
the failure signature it reproduces, and discovery metadata.  Entries are
written as canonical JSON named by the sha256 of their content, so a
corpus directory is append-only, collision-free, and merge-friendly —
two campaigns that find the same minimal reproducer write the same file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..chaos.oracle import OracleConfig
from ..chaos.schedule import FaultSchedule
from ..core.config import ProtocolConfig
from ..core.node import NodeStackConfig
from ..obs.context import ObsConfig
from ..obs.coverage import trace_coverage
from ..persist import atomic_write
from ..sim.experiment import ExperimentConfig, ExperimentResult
from ..workloads.scenarios import ScenarioConfig
from .fixtures import runner

__all__ = ["TargetSpec", "CorpusEntry", "corpus_paths", "failure_signature",
           "load_corpus", "load_entry", "replay", "write_entry"]


@dataclass(frozen=True)
class TargetSpec:
    """The fixed half of a fuzzed experiment (everything but the faults).

    Defaults describe a small, fast world — one run ≈ 0.1 s — because a
    fuzzing campaign's budget is runs, not realism.  ``delivery_threshold``
    draws the line for the degradation half of the failure signature:
    fault-free, this world delivers 1.0, and honest fault tolerance keeps
    single-fault runs above 0.75.
    """

    n: int = 10
    seed: int = 3
    protocol: str = "byzcast"
    runner: str = "experiment"
    warmup: float = 4.0
    message_count: int = 3
    message_interval: float = 1.5
    drain: float = 6.0
    delivery_threshold: float = 0.75
    #: Fault times are fuzzed within ``[0, horizon)`` on the workload
    #: clock (0 = end of warmup).
    horizon: float = 5.0
    purge_timeout: float = 30.0
    purge_period: float = 5.0
    buffer_slack: int = 8

    def __post_init__(self) -> None:
        from .fixtures import RUNNERS
        if self.runner not in RUNNERS:
            raise ValueError(f"unknown runner {self.runner!r}; choose "
                             f"from {tuple(sorted(RUNNERS))}")
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.delivery_threshold <= 1.0:
            raise ValueError("delivery_threshold must be in [0, 1]")

    # ------------------------------------------------------------------
    def experiment_config(self,
                          schedule: Optional[FaultSchedule] = None
                          ) -> ExperimentConfig:
        """The full experiment for this target under ``schedule``."""
        return ExperimentConfig(
            scenario=ScenarioConfig(n=self.n, seed=self.seed),
            protocol=self.protocol,
            stack=NodeStackConfig(protocol=ProtocolConfig(
                purge_timeout=self.purge_timeout,
                purge_period=self.purge_period)),
            warmup=self.warmup,
            message_count=self.message_count,
            message_interval=self.message_interval,
            drain=self.drain,
            chaos=schedule if schedule and schedule.events else None,
            oracle=OracleConfig(buffer_slack=self.buffer_slack),
            observe=ObsConfig(spans_in_result=False),
        )

    def run(self, schedule: Optional[FaultSchedule] = None
            ) -> ExperimentResult:
        """Execute this target under ``schedule`` via its runner."""
        return runner(self.runner)(self.experiment_config(schedule))

    def signature_of(self, result: ExperimentResult) -> Tuple[str, ...]:
        return failure_signature(result, self.delivery_threshold)

    def coverage_of(self, result: ExperimentResult):
        return trace_coverage(
            result.trace, delivery_ratio=result.delivery_ratio,
            violations=sorted({v["invariant"]
                               for v in result.violations}))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TargetSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TargetSpec fields: {sorted(unknown)}")
        return cls(**dict(data))


def failure_signature(result: ExperimentResult,
                      delivery_threshold: float) -> Tuple[str, ...]:
    """The canonical *what-went-wrong* fingerprint of a run.

    Sorted violated-invariant names, plus ``"delivery_degraded"`` when
    delivery fell below the target threshold.  Empty tuple = healthy run.
    Shrinking preserves signatures, and corpus entries are deduplicated
    by them.
    """
    names = {violation["invariant"] for violation in result.violations}
    if result.delivery_ratio < delivery_threshold:
        names.add("delivery_degraded")
    return tuple(sorted(names))


@dataclass(frozen=True)
class CorpusEntry:
    """One minimal reproducer: a target, a schedule, and what it breaks."""

    target: TargetSpec
    schedule: FaultSchedule
    signature: Tuple[str, ...]
    #: Fuzzer iteration (1-based) at which the pre-shrink parent was
    #: found; 0 for hand-seeded entries.
    found_iteration: int = 0
    #: Extra provenance (original event count, shrink test count, ...).
    stats: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature",
                           tuple(sorted(str(s) for s in self.signature)))
        object.__setattr__(self, "stats",
                           {str(k): self.stats[k]
                            for k in sorted(self.stats)})

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target.to_dict(),
            "schedule": self.schedule.to_dict(),
            "signature": list(self.signature),
            "found_iteration": self.found_iteration,
            "stats": dict(self.stats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusEntry":
        return cls(
            target=TargetSpec.from_dict(data["target"]),
            schedule=FaultSchedule.from_dict(data["schedule"]),
            signature=tuple(data.get("signature", ())),
            found_iteration=int(data.get("found_iteration", 0)),
            stats=dict(data.get("stats", {})),
        )

    def digest(self) -> str:
        """Content address: sha256 of the canonical JSON, truncated."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
def write_entry(entry: CorpusEntry, directory: str) -> str:
    """Persist ``entry`` under its content address; returns the path.

    Writing the same finding twice is a no-op (same bytes, same name).
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{entry.digest()}.json")
    if not os.path.exists(path):
        with atomic_write(path) as handle:
            handle.write(entry.to_json() + "\n")
    return path


def load_entry(path: str) -> CorpusEntry:
    with open(path) as handle:
        return CorpusEntry.from_dict(json.load(handle))


def corpus_paths(directory: str) -> List[str]:
    """Every entry file in a corpus directory, sorted by file name
    (= content digest) for deterministic iteration."""
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, name)
            for name in sorted(os.listdir(directory))
            if name.endswith(".json")]


def load_corpus(directory: str) -> List[Tuple[str, CorpusEntry]]:
    """All ``(path, entry)`` pairs in a corpus directory, in
    :func:`corpus_paths` order.  Strict: a damaged entry raises."""
    return [(path, load_entry(path)) for path in corpus_paths(directory)]


def replay(entry: CorpusEntry) -> Dict[str, Any]:
    """Re-run a corpus entry; report whether its signature reproduces.

    ``reproduced`` demands the recorded signature still be *contained* in
    the replayed one — the bug may have grown new symptoms, but the
    original ones must persist.
    """
    result = entry.target.run(entry.schedule)
    signature = entry.target.signature_of(result)
    return {
        "signature": signature,
        "expected": entry.signature,
        "reproduced": set(entry.signature) <= set(signature),
        "delivery_ratio": result.delivery_ratio,
        "violations": result.invariant_violations,
    }
