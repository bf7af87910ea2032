"""Experiment campaigns: many configurations, persisted results, resume.

A :class:`Campaign` owns a directory of result records (one JSON file per
configuration, keyed by a content hash of the configuration).  Re-running
a campaign skips configurations whose results already exist, so a large
evaluation can be built up incrementally across interrupted sessions —
the workflow a full paper evaluation actually needs.

``Campaign.run(configs, workers=N)`` executes the pending configurations
across ``N`` worker processes.  Records are computed in the workers but
always serialized and written by the parent (single writer, atomic
rename), and each simulation is self-seeded, so a parallel campaign's
record files are byte-identical to a serial run's — resume/skip semantics
are unchanged because both paths key on the same content hashes.
Serial and pooled runs are one ``parallel_map`` call, and
:meth:`Campaign.pending` is the one batch dedupe — the campaign service
takes its keys and its pending list from it too.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..persist import atomic_write, read_json_object
from ..telemetry.log import event, get_logger
from .checkpoint import CheckpointConfig, _jsonable, config_key
from .experiment import ExperimentConfig, ExperimentResult, \
    parallel_map, run_experiment

_log = get_logger("sim.campaign")

__all__ = ["Campaign", "CampaignError", "config_key", "parallel_map",
           "result_to_record"]


class CampaignError(RuntimeError):
    """A campaign run failed partway through its pending configurations.

    Every record completed before the failure has already been persisted
    (records stream back in task order and are written as they arrive);
    ``executed`` and ``skipped`` carry the counts the run would have
    returned, so a caller can account for the partial progress and simply
    re-run the campaign — resume/skip semantics pick up the remainder.
    """

    def __init__(self, message: str, *, executed: int = 0,
                 skipped: int = 0) -> None:
        super().__init__(message)
        self.executed = executed
        self.skipped = skipped


def result_to_record(config: ExperimentConfig,
                     result: ExperimentResult) -> Dict[str, Any]:
    """A flat, JSON-serializable record of one run.

    Observed runs (``config.observe``) contribute a ``metrics`` block —
    the virtual-time series, final counters, and span count — but never
    the raw span stream: spans scale with traffic and belong in trace
    files (``repro run --trace-out``), not campaign records.
    """
    metrics = None
    if result.trace is not None:
        metrics = {
            "meta": _jsonable(result.trace.get("meta")),
            "series": _jsonable(result.trace.get("series")),
            "counters": _jsonable(result.trace.get("counters")),
            "span_count": result.trace.get("span_count"),
            "dropped_spans": result.trace.get("dropped_spans"),
        }
    return {
        "key": config_key(config),
        "protocol": result.protocol,
        "n": result.n,
        "byzantine": result.byzantine,
        "seed": config.scenario.seed,
        "broadcasts": result.broadcasts,
        "delivery_ratio": result.delivery_ratio,
        "complete_fraction": result.complete_fraction,
        "mean_latency": result.mean_latency,
        "max_latency": result.max_latency,
        "mean_completion_latency": result.mean_completion_latency,
        "chaos_events": result.chaos_events,
        "invariant_violations": result.invariant_violations,
        "violations": _jsonable(result.violations),
        "profile": _jsonable(result.profile),
        "runtime": _jsonable(result.runtime),
        "metrics": metrics,
        "physical": _jsonable(result.physical),
        "energy": _jsonable(result.energy),
        "overlay_quality": _jsonable(result.overlay_quality),
        "config": _jsonable(config),
    }


def _run_record(task: Tuple[str, ExperimentConfig]
                ) -> Tuple[str, Dict[str, Any]]:
    """Worker-process task body: run one config, build its record.

    Module-level (not a method) so it pickles under every multiprocessing
    start method.
    """
    key, config = task
    return key, result_to_record(config, run_experiment(config))


class Campaign:
    """A persisted collection of experiment runs."""

    def __init__(self, directory: str):
        self._directory = directory
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    def _path(self, key: str) -> str:
        return os.path.join(self._directory, f"{key}.json")

    def has(self, config: ExperimentConfig) -> bool:
        return os.path.exists(self._path(config_key(config)))

    def load(self, config: ExperimentConfig) -> Optional[Dict[str, Any]]:
        return self.load_key(config_key(config))

    def load_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The persisted record for one content-hash key, or None (a
        damaged file is quarantined, so the next run recomputes it)."""
        return read_json_object(self._path(key), "campaign record")

    def keys(self) -> List[str]:
        """Every persisted record key, sorted for determinism."""
        return sorted(name[:-len(".json")]
                      for name in os.listdir(self._directory)
                      if name.endswith(".json"))

    def records(self) -> List[Dict[str, Any]]:
        """All persisted records, sorted by key for determinism.

        Corrupt record files are quarantined and skipped (see
        :func:`repro.persist.read_json_object`), never raised."""
        records = (self.load_key(key) for key in self.keys())
        return [record for record in records if record is not None]

    # ------------------------------------------------------------------
    def pending(self, configs: Iterable[ExperimentConfig], *,
                force: bool = False
                ) -> Tuple[List[str], List[Tuple[str, ExperimentConfig]]]:
        """Every config's key, in order, and the ``(key, config)`` pairs
        still to run: the first occurrence of each key not yet stored
        (with ``force``, the first occurrence of every key).

        Each key is computed once.  A key repeated within the batch is
        never run twice: ``force`` overrides the on-disk record, not the
        within-batch dedupe — duplicates would race two writers on the
        same file under ``workers > 1``.
        """
        keys: List[str] = []
        pending: List[Tuple[str, ExperimentConfig]] = []
        claimed = set()
        for config in configs:
            key = config_key(config)
            keys.append(key)
            if key not in claimed and (
                    force or not os.path.exists(self._path(key))):
                pending.append((key, config))
            claimed.add(key)
        return keys, pending

    def run(self, configs: Iterable[ExperimentConfig], *,
            force: bool = False,
            workers: int = 1,
            checkpoint_every: Optional[float] = None) -> Tuple[int, int]:
        """Run every configuration not yet persisted.

        With ``workers > 1`` the pending configurations are distributed
        over a process pool; record content is byte-identical to a serial
        run (simulations are self-seeded, files are written only by this
        process).  Returns ``(executed, skipped)``.

        With ``checkpoint_every`` each pending run snapshots itself every
        that many *virtual* seconds into ``<campaign>/checkpoints/``.  A
        worker killed mid-run leaves its latest snapshot behind; the next
        ``run`` over the same configurations picks the run up from there
        instead of restarting it, and the finished record is
        byte-identical (modulo its config block, which carries the
        checkpoint settings) to an uninterrupted run's.  The content hash
        ignores checkpoint settings, so skip/resume semantics and record
        file names are unchanged.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        keys, pending = self.pending(configs, force=force)
        skipped = len(keys) - len(pending)
        if checkpoint_every is not None:
            checkpoint = CheckpointConfig(
                every=checkpoint_every,
                directory=os.path.join(self._directory, "checkpoints"))
            pending = [(key, dataclasses.replace(config,
                                                 checkpoint=checkpoint))
                       for key, config in pending]
        event(_log, "campaign.run.start", pending=len(pending),
              skipped=skipped, workers=workers, directory=self._directory)
        executed = 0

        def persist(task, outcome):
            nonlocal executed
            key, record = outcome
            self._write(key, record)
            executed += 1
            event(_log, "campaign.record.persisted", config_key=key,
                  wall_seconds=(record.get("runtime") or {}).get(
                      "wall_seconds"))

        # ``executed`` counts records actually written: results stream
        # back in task order, so on a failure everything before the
        # failing task is already on disk and the failing task is
        # ``pending[executed]``.
        try:
            parallel_map(_run_record, pending, workers=workers,
                         on_result=persist)
        except Exception as exc:
            key = pending[executed][0]
            event(_log, "campaign.run.failed", level=logging.ERROR,
                  config_key=key, executed=executed, pending=len(pending),
                  error=str(exc))
            raise CampaignError(
                f"campaign run failed on [{key}] after {executed} of "
                f"{len(pending)} pending records were persisted: {exc}",
                executed=executed, skipped=skipped) from exc
        return executed, skipped

    def _write(self, key: str, record: Dict[str, Any]) -> None:
        """Atomically persist one record (write-temp + rename)."""
        with atomic_write(self._path(key)) as handle:
            json.dump(record, handle, indent=1)

    # ------------------------------------------------------------------
    def rows(self, *fields: str) -> List[Dict[str, Any]]:
        """Project the campaign's records onto selected fields."""
        selected = fields or ("protocol", "n", "byzantine", "seed",
                              "delivery_ratio", "mean_latency")
        return [{name: record.get(name) for name in selected}
                for record in self.records()]
