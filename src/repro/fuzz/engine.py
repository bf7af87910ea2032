"""The coverage-guided fuzzing loop.

Generational design, built for determinism first:

1. The parent proposes a **batch** of candidate schedules — mutations of
   pool members (or fresh seeds while the pool is empty) — deduplicated
   by content digest against everything proposed so far.
2. The batch is evaluated through
   :func:`repro.sim.campaign.parallel_map`, each candidate running the
   target's experiment in a worker and returning a slim, picklable
   outcome: coverage keys, failure signature, delivery ratio.
3. The parent merges outcomes **serially, in candidate order**: novel
   coverage admits the candidate to the mutation pool; a novel failure
   signature triggers in-parent shrinking and a corpus write.

Candidate generation never reads evaluation results mid-batch and the
merge order is the proposal order, so the corpus files, coverage
snapshot, and report are byte-identical across repeats and across
``workers=1`` vs ``workers=4`` — the property the determinism tests pin.

Fitness is *novelty*: a candidate earns its place by ending some counter
in a fresh bucket (:mod:`repro.obs.coverage`), degrading delivery into a
fresh 5% bin, or violating an invariant nobody violated before.  There
is deliberately no scalar score to maximize — schedule search is about
reaching new behaviour, not climbing one metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..chaos.schedule import FaultSchedule
from ..obs.coverage import CoverageMap
from ..sim.campaign import parallel_map
from ..sim.experiment import make_pool
from ..telemetry.log import event, get_logger
from .corpus import CorpusEntry, TargetSpec, write_entry
from .mutate import ScheduleMutator
from .shrink import shrink_events

__all__ = ["FuzzConfig", "FuzzReport", "Fuzzer", "fuzz"]

_log = get_logger("fuzz.engine")


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign's settings."""

    target: TargetSpec = field(default_factory=TargetSpec)
    #: Total candidate evaluations (the campaign budget).
    iterations: int = 200
    #: Candidates proposed and evaluated per generation.
    batch: int = 8
    workers: int = 1
    #: Master seed of the mutation/selection streams — the only source
    #: of randomness in the whole campaign.
    fuzz_seed: int = 1
    #: Where shrunk reproducers are written; None keeps them in-memory.
    corpus_dir: Optional[str] = None
    max_events: int = 12
    #: Mutation-pool capacity; oldest admissions are evicted first.
    pool_limit: int = 32
    #: Predicate-execution cap per shrink.
    shrink_budget: int = 200
    #: Stop early once this many distinct failure signatures are found
    #: (None = spend the whole budget).
    stop_after_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.pool_limit < 1:
            raise ValueError("pool_limit must be >= 1")


@dataclass(frozen=True)
class FuzzReport:
    """What a campaign found, in canonical JSON-ready form."""

    evaluated: int
    failures: Tuple[Mapping[str, Any], ...]
    coverage: Mapping[str, Any]
    pool_digests: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "evaluated": self.evaluated,
            "failures": [dict(f) for f in self.failures],
            "coverage": dict(self.coverage),
            "pool_digests": list(self.pool_digests),
        }


def _evaluate(task: Tuple[Dict[str, Any], str]) -> Dict[str, Any]:
    """Worker task body: run one candidate, return its slim outcome.

    Ships dicts/JSON instead of rich objects so it pickles identically
    under every multiprocessing start method.
    """
    target_data, schedule_json = task
    target = TargetSpec.from_dict(target_data)
    schedule = FaultSchedule.from_json(schedule_json)
    result = target.run(schedule)
    return {
        "keys": tuple(sorted(target.coverage_of(result))),
        "signature": tuple(target.signature_of(result)),
        "delivery_ratio": result.delivery_ratio,
        "violations": result.invariant_violations,
    }


class Fuzzer:
    """Coverage-guided search over fault schedules for one target."""

    def __init__(self, config: FuzzConfig,
                 progress: Optional[Callable[[str], None]] = None):
        from ..des.random import StreamFactory
        self._config = config
        self._progress = progress
        factory = StreamFactory(config.fuzz_seed)
        self._mutator = ScheduleMutator(
            config.target.n, config.target.horizon,
            factory.stream("fuzz:mutate"), max_events=config.max_events)
        self._select = factory.stream("fuzz:select")
        self._coverage = CoverageMap()
        self._pool: List[FaultSchedule] = []
        self._seen: set = set()
        self._failures: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        self._evaluated = 0

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _pick_parent(self) -> Optional[FaultSchedule]:
        if not self._pool:
            return None
        # Half the picks favour the youngest member (depth along the
        # newest interesting lineage), half explore the whole pool.
        if self._select.chance(0.5):
            return self._pool[-1]
        return self._pool[self._select.randint(0, len(self._pool) - 1)]

    def _pick_donor(self) -> Optional[FaultSchedule]:
        if len(self._pool) < 2 or not self._select.chance(0.3):
            return None
        return self._pool[self._select.randint(0, len(self._pool) - 1)]

    def _propose(self) -> FaultSchedule:
        """One fresh-by-digest candidate (bounded retries)."""
        candidate = None
        for _ in range(12):
            parent = self._pick_parent()
            if parent is None:
                candidate = self._mutator.seed()
            else:
                candidate = self._mutator.mutate(parent,
                                                 donor=self._pick_donor())
            if candidate.digest() not in self._seen:
                break
        self._seen.add(candidate.digest())
        return candidate

    # ------------------------------------------------------------------
    def _admit(self, schedule: FaultSchedule) -> None:
        self._pool.append(schedule)
        while len(self._pool) > self._config.pool_limit:
            self._pool.pop(0)

    def _shrink_predicate(self, signature: Tuple[str, ...]
                          ) -> Callable[[FaultSchedule], bool]:
        target = self._config.target

        def predicate(schedule: FaultSchedule) -> bool:
            result = target.run(schedule)
            return set(signature) <= set(target.signature_of(result))
        return predicate

    def _record_failure(self, candidate: FaultSchedule,
                        outcome: Mapping[str, Any]) -> None:
        signature = tuple(outcome["signature"])
        if signature in self._failures:
            return
        self._log(f"failure {'/'.join(signature)} at iteration "
                  f"{self._evaluated}: shrinking "
                  f"{len(candidate.events)} events")
        event(_log, "fuzz.failure", signature=list(signature),
              iteration=self._evaluated, events=len(candidate.events))
        shrunk = shrink_events(candidate,
                               self._shrink_predicate(signature),
                               budget=self._config.shrink_budget)
        entry = CorpusEntry(
            target=self._config.target,
            schedule=shrunk.schedule,
            signature=signature,
            found_iteration=self._evaluated,
            stats={"original_events": shrunk.original_events,
                   "shrunk_events": len(shrunk.schedule.events),
                   "shrink_tests": shrunk.tests,
                   "delivery_ratio": outcome["delivery_ratio"]},
        )
        record = {"signature": list(signature),
                  "digest": entry.digest(),
                  "found_iteration": self._evaluated,
                  "events": len(shrunk.schedule.events),
                  "entry": entry.to_dict()}
        if self._config.corpus_dir is not None:
            record["path"] = write_entry(entry, self._config.corpus_dir)
            self._log(f"wrote {record['path']} "
                      f"({len(shrunk.schedule.events)} events)")
        self._failures[signature] = record

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        config = self._config
        target_data = config.target.to_dict()
        pool = None
        if config.workers > 1:
            # Fork the worker pool before any run has patched classes in
            # this process (shrinking patches them transiently).
            pool = make_pool(config.workers)
        try:
            while self._evaluated < config.iterations:
                room = config.iterations - self._evaluated
                batch = [self._propose()
                         for _ in range(min(config.batch, room))]
                outcomes = parallel_map(
                    _evaluate,
                    [(target_data, candidate.to_json())
                     for candidate in batch],
                    workers=1 if pool is not None else config.workers,
                    pool=pool)
                for candidate, outcome in zip(batch, outcomes):
                    self._evaluated += 1
                    novel = self._coverage.add(outcome["keys"])
                    if novel:
                        self._admit(candidate)
                    if outcome["signature"]:
                        self._record_failure(candidate, outcome)
                event(_log, "fuzz.generation", evaluated=self._evaluated,
                      pool=len(self._pool), failures=len(self._failures),
                      coverage=len(self._coverage.snapshot()))
                if (config.stop_after_failures is not None
                        and len(self._failures)
                        >= config.stop_after_failures):
                    break
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
        failures = tuple(self._failures[signature]
                         for signature in sorted(self._failures))
        return FuzzReport(
            evaluated=self._evaluated,
            failures=failures,
            coverage=self._coverage.snapshot(),
            pool_digests=tuple(s.digest() for s in self._pool))


def fuzz(config: FuzzConfig,
         progress: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Run one fuzzing campaign; convenience wrapper over
    :class:`Fuzzer`."""
    return Fuzzer(config, progress=progress).run()
