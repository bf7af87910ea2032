"""Persistent job queue for the campaign service.

One JSON file per job, written and read through :mod:`repro.persist`:
a crash never leaves half a job file, and a damaged one is quarantined
instead of stopping the service from starting.  Jobs progress
``queued -> running -> done | failed | cancelled``; a service
restart re-queues anything left ``running`` (the killed scheduler's
in-flight job — its finished records are already in the store, so the
re-run is almost entirely cache hits, plus checkpoint resume for the
config it died inside).

The queue is owned by one service process; a single lock serializes the
scheduler thread against the HTTP handler threads.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..persist import atomic_write, read_json_object

__all__ = ["Job", "JobQueue", "JOB_STATES", "TERMINAL_STATES"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: ``j<seq>.json``, or its quarantined ``j<seq>.json.corrupt``.
_JOB_FILE = re.compile(r"j(\d+)\.json(?:\.corrupt)?$")


@dataclass(frozen=True)
class Job:
    """One submitted sweep spec and its execution bookkeeping."""

    id: str
    spec: Dict[str, Any]
    state: str = "queued"
    #: Monotonic submission sequence number (queue order).
    submitted: int = 0
    #: Grid size, configs satisfied by the record store at claim time,
    #: and records actually executed+persisted by this job.
    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Record keys of the expanded grid, in grid order (set at claim).
    keys: List[str] = field(default_factory=list)
    error: Optional[str] = None
    #: A cancel seen while running; honored at the next chunk boundary.
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        return cls(**data)


class JobQueue:
    """Directory-backed FIFO of :class:`Job` records."""

    def __init__(self, directory: str):
        self._directory = directory
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        os.makedirs(directory, exist_ok=True)
        names = sorted(os.listdir(directory))
        for name in names:
            if name.endswith(".json"):
                job = read_json_object(os.path.join(directory, name),
                                       "job file", build=Job.from_dict)
                if job is not None:
                    self._jobs[job.id] = job
        # A quarantined job's id is never handed out again.
        self._seq = 1 + max((int(match.group(1)) for match in
                             map(_JOB_FILE.match, names) if match),
                            default=0)

    @property
    def directory(self) -> str:
        return self._directory

    # ------------------------------------------------------------------
    def _save(self, job: Job) -> None:
        path = os.path.join(self._directory, f"{job.id}.json")
        with atomic_write(path) as handle:
            json.dump(job.to_dict(), handle, indent=1, sort_keys=True)

    def _store(self, job: Job) -> Job:
        self._jobs[job.id] = job
        self._save(job)
        return job

    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Job:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return self._store(Job(id=f"j{seq:06d}", spec=spec,
                                   submitted=seq))

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda job: job.submitted)

    def claim_next(self) -> Optional[Job]:
        """Oldest queued job, flipped to running; None when idle."""
        with self._lock:
            for job in sorted(self._jobs.values(),
                              key=lambda job: job.submitted):
                if job.state == "queued":
                    return self._store(replace(job, state="running"))
            return None

    def update(self, job_id: str, **fields: Any) -> Job:
        with self._lock:
            return self._store(replace(self._jobs[job_id], **fields))

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job: queued jobs cancel immediately; running jobs get
        ``cancel_requested`` and stop at the scheduler's next chunk
        boundary; terminal jobs are left untouched."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return job
            if job.state == "queued":
                return self._store(replace(job, state="cancelled"))
            return self._store(replace(job, cancel_requested=True))

    def requeue_running(self) -> List[Job]:
        """Startup recovery: anything still marked running belonged to a
        dead scheduler — put it back in the queue."""
        with self._lock:
            recovered = []
            for job in list(self._jobs.values()):
                if job.state == "running":
                    recovered.append(self._store(
                        replace(job, state="queued",
                                cancel_requested=False)))
            return recovered
