"""The correctness gate: every run, job, request and comparison counts.

A workload reports each thing it attempted through :meth:`Gate.check`;
``failed / attempted`` is the failure share the result line carries, and
any failure makes the human command (``python -m bench run``) exit
non-zero.  The modelled statistics of a seeded run repeat exactly, so
most checks are equalities, not tolerances.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.sim.campaign import result_to_record
from repro.telemetry.runtime import strip_runtime

__all__ = ["Gate", "stable_record", "digest_of", "model_numbers"]


class Gate:
    """Counts attempted and failed operations, keeping why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def stable_record(config: Any, result: Any) -> Dict[str, Any]:
    """The campaign record of a run without its host-dependent parts.

    ``config`` is the workload's own config even when the run used a
    profiled or oracle-checked copy of it, so records of the timed, the
    traced and the ``run_experiment`` path compare equal."""
    record = strip_runtime(result_to_record(config, result))
    record.pop("profile", None)
    return record


def digest_of(records: Iterable[Dict[str, Any]]) -> str:
    """sha256 over campaign records, their host-dependent ``runtime`` and
    ``profile`` blocks left out."""
    hasher = hashlib.sha256()
    for record in records:
        stripped = {key: value for key, value in record.items()
                    if key not in ("runtime", "profile")}
        hasher.update(json.dumps(stripped, sort_keys=True).encode())
    return hasher.hexdigest()


def model_numbers(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Means over campaign records of the modelled protocol's numbers.

    ``tx_per_bcast`` is what ``ExperimentResult.transmissions_per_broadcast``
    gives for a live result: HELLO beacons excluded."""
    def tx_per_broadcast(record: Dict[str, Any]) -> float:
        physical = record["physical"]
        return ((physical.get("transmissions", 0)
                 - physical.get("tx_hello", 0)) / record["broadcasts"])

    count = len(records)
    return {
        "delivery_ratio": sum(r["delivery_ratio"] for r in records) / count,
        "tx_per_bcast": sum(map(tx_per_broadcast, records)) / count,
        "sim_latency_s": sum(r["mean_latency"] for r in records) / count,
    }
