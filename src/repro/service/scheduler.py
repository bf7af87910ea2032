"""The campaign scheduler: specs in, deduped records out.

:class:`CampaignService` ties the pieces together — a persistent
:class:`JobQueue`, the content-addressed :class:`ResultStore`, and the
existing ``Campaign``/``parallel_map``/checkpoint machinery as the
execution engine.  One scheduler thread drains the queue; each job's
spec expands into its config grid, every config whose ``config_key``
already has a record counts as a cache hit (zero recomputation of shared
sub-sweeps — the whole point of the service), and the remainder runs
through ``Campaign.run`` in chunks so cancellation and preemption have
bounded latency.

Resumability comes in two layers, both inherited rather than invented
here: a SIGTERM-killed *worker process* leaves a ``CheckpointConfig``
snapshot that the next run of the same config picks up mid-simulation,
and a killed *service process* leaves its job marked ``running``, which
startup recovery re-queues — the finished records are already in the
store, so the re-run is cache hits plus one checkpoint resume.  A
*graceful* stop (``stop()``, wired to SIGTERM/SIGINT by ``repro
serve``) is cleaner still: the running job is requeued at the next
chunk boundary before the thread exits, so no recovery pass is needed.

Operationally the service carries its own wall-clock telemetry
(:attr:`CampaignService.telemetry`, served at ``GET /metrics``) and a
chunk-granular progress feed (:meth:`CampaignService.progress`, served
as a long-poll at ``GET /api/jobs/<id>/progress``).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..sim.campaign import CampaignError
from ..sim.checkpoint import config_key
from ..telemetry.log import bound, event, get_logger
from ..telemetry.metrics import TelemetryRegistry
from .queue import Job, JobQueue
from .spec import SweepSpec
from .store import ResultStore

__all__ = ["CampaignService"]

_log = get_logger("service.scheduler")


class CampaignService:
    """An always-on campaign job service over one state directory.

    Layout: ``<directory>/jobs/`` (queue), ``<directory>/records/`` (the
    content-addressed store; ``records/checkpoints/`` holds worker
    snapshots while checkpointing is enabled).
    """

    def __init__(self, directory: str, *, workers: int = 1,
                 checkpoint_every: Optional[float] = None,
                 chunk_size: Optional[int] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.queue = JobQueue(os.path.join(directory, "jobs"))
        self.store = ResultStore(os.path.join(directory, "records"))
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        #: Configs per ``Campaign.run`` call: large enough that the pool
        #: fork amortizes, small enough that cancel/kill react promptly.
        self.chunk_size = chunk_size or max(4 * workers, 8)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Wall-clock process metrics (never the virtual-time
        #: ``repro.obs`` registry — see :mod:`repro.telemetry`).
        self.telemetry = TelemetryRegistry()
        self._build_metrics()
        #: Long-poll plumbing: a monotonically increasing version bumped
        #: on every observable job change; pollers wait for it to pass
        #: the version they last saw.
        self._progress_cond = threading.Condition()
        self._progress_version = 0
        self.queue.requeue_running()
        self._update_queue_depth()

    def _build_metrics(self) -> None:
        m = self.telemetry
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "Sweep jobs accepted.")
        self._m_completed = m.counter(
            "repro_jobs_completed_total", "Jobs finished in state done.")
        self._m_failed = m.counter(
            "repro_jobs_failed_total", "Jobs finished in state failed.")
        self._m_cancelled = m.counter(
            "repro_jobs_cancelled_total",
            "Jobs finished in state cancelled.")
        self._m_configs = m.counter(
            "repro_configs_total", "Configurations across processed jobs.")
        self._m_cache_hits = m.counter(
            "repro_cache_hits_total",
            "Configurations served from the record store without a run.")
        self._m_executed = m.counter(
            "repro_records_executed_total",
            "Experiment records actually computed and persisted.")
        self._m_kernel_events = m.counter(
            "repro_kernel_events_total",
            "Discrete-event kernel events fired by executed records.")
        self._m_busy_seconds = m.counter(
            "repro_busy_seconds_total",
            "Wall seconds the scheduler spent running campaign chunks.")
        self._m_queue_depth = m.gauge(
            "repro_queue_depth", "Jobs currently waiting in state queued.")
        self._m_busy = m.gauge(
            "repro_worker_busy",
            "1 while the scheduler is executing a job, else 0.")
        self._m_workers = m.gauge(
            "repro_workers", "Configured campaign worker processes.")
        self._m_workers.set(self.workers)
        self._m_hit_rate = m.gauge(
            "repro_cache_hit_rate",
            "Lifetime cache hits / configs over processed jobs.")
        self._m_events_rate = m.gauge(
            "repro_kernel_events_per_second",
            "Lifetime kernel events / busy wall seconds.")
        self._m_chunk_seconds = m.histogram(
            "repro_chunk_seconds",
            "Wall-time of one campaign chunk (a Campaign.run call).")

    # ------------------------------------------------------------------
    # Client-facing operations (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, spec_data: Any) -> Job:
        """Validate and enqueue one sweep spec; raises :class:`SpecError`
        on a malformed submission (nothing reaches the queue)."""
        spec = SweepSpec.from_dict(spec_data)
        job = self.queue.submit(spec.to_dict())
        self._m_submitted.inc()
        self._update_queue_depth()
        event(_log, "job.submitted", job_id=job.id)
        self._wake.set()
        self._notify_progress()
        return job

    def cancel(self, job_id: str) -> Optional[Job]:
        before = self.queue.get(job_id)
        job = self.queue.cancel(job_id)
        if (job is not None and before is not None
                and before.state == "queued" and job.state == "cancelled"):
            self._m_cancelled.inc()
            self._update_queue_depth()
            event(_log, "job.cancelled", job_id=job_id, while_queued=True)
        self._notify_progress()
        return job

    def stats(self) -> Dict[str, Any]:
        """Aggregate service counters: per-state job counts, grid totals,
        cache-hit rate, and store size — the dashboard's numbers."""
        jobs = self.queue.jobs()
        states: Dict[str, int] = {}
        total = hits = executed = 0
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
            total += job.total
            hits += job.cache_hits
            executed += job.executed
        return {
            "jobs": len(jobs),
            "states": states,
            "configs_total": total,
            "cache_hits": hits,
            "executed": executed,
            "cache_hit_rate": (hits / total) if total else None,
            "records": len(self.store.keys()),
            "workers": self.workers,
            "queue_depth": states.get("queued", 0),
            "worker_busy": int(self._m_busy.value),
        }

    def metrics_text(self) -> str:
        """The telemetry registry in Prometheus text exposition format."""
        return self.telemetry.render()

    def progress(self, job_id: str, since: int = 0,
                 timeout: float = 25.0) -> Optional[Dict[str, Any]]:
        """Long-poll one job's progress.

        Blocks until the service's progress version passes ``since`` (any
        observable job change: chunk finished, state transition, new
        submission) or ``timeout`` elapses, then returns the job's
        current counters plus the version to pass back as the next
        ``since``.  Terminal jobs return immediately.  Returns None for
        an unknown job id.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._progress_cond:
            while True:
                job = self.queue.get(job_id)
                if job is None:
                    return None
                version = self._progress_version
                if job.terminal or version > since:
                    return self._progress_payload(job, version)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return self._progress_payload(job, version)
                self._progress_cond.wait(remaining)

    @staticmethod
    def _progress_payload(job: Job, version: int) -> Dict[str, Any]:
        return {
            "id": job.id,
            "state": job.state,
            "total": job.total,
            "cache_hits": job.cache_hits,
            "executed": job.executed,
            "pending": max(0, job.total - job.cache_hits - job.executed),
            "version": version,
        }

    def _notify_progress(self) -> None:
        with self._progress_cond:
            self._progress_version += 1
            self._progress_cond.notify_all()

    def _update_queue_depth(self) -> None:
        depth = sum(1 for job in self.queue.jobs()
                    if job.state == "queued")
        self._m_queue_depth.set(depth)

    def _update_rates(self) -> None:
        configs = self._m_configs.value
        if configs:
            self._m_hit_rate.set(self._m_cache_hits.value / configs)
        busy = self._m_busy_seconds.value
        if busy > 0:
            self._m_events_rate.set(self._m_kernel_events.value / busy)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def process_once(self) -> Optional[Job]:
        """Claim and fully process one queued job; None when idle."""
        job = self.queue.claim_next()
        if job is None:
            return None
        self._update_queue_depth()
        return self._run_job(job)

    def run_until_idle(self) -> int:
        """Drain the queue synchronously (tests, one-shot batch mode);
        returns the number of jobs processed."""
        processed = 0
        while True:
            job = self.process_once()
            if job is None:
                return processed
            processed += 1
            if job.state == "queued":
                # A graceful stop requeued the job mid-flight; draining
                # further would spin on it forever.
                return processed

    def _run_job(self, job: Job) -> Job:
        self._m_busy.set(1)
        try:
            with bound(job_id=job.id):
                return self._run_job_body(job)
        finally:
            self._m_busy.set(0)
            self._update_queue_depth()
            self._update_rates()
            self._notify_progress()

    def _run_job_body(self, job: Job) -> Job:
        try:
            configs = SweepSpec.from_dict(job.spec).expand()
        except Exception as exc:
            # The job file is read back from disk: outside input, so no
            # error in it may take the scheduler thread down.
            self._m_failed.inc()
            event(_log, "job.failed", level=logging.ERROR, error=str(exc))
            return self.queue.update(job.id, state="failed",
                                     error=str(exc))
        keys = [config_key(config) for config in configs]
        # Task-level dedupe: the first occurrence of a key not yet in the
        # store runs; everything else — within-job duplicates and records
        # from earlier jobs — is a cache hit.
        seen: set = set()
        pending: List[Tuple[Any, str]] = []
        for config, key in zip(configs, keys):
            if key not in seen and not self.store.has_key(key):
                pending.append((config, key))
            seen.add(key)
        cache_hits = len(configs) - len(pending)
        job = self.queue.update(
            job.id, total=len(configs), cache_hits=cache_hits, keys=keys)
        self._m_configs.inc(len(configs))
        self._m_cache_hits.inc(cache_hits)
        self._update_rates()
        self._notify_progress()
        event(_log, "job.started", total=len(configs),
              cache_hits=cache_hits, pending=len(pending))
        executed = 0
        try:
            for start in range(0, len(pending), self.chunk_size):
                current = self.queue.get(job.id)
                if current is not None and current.cancel_requested:
                    self._m_cancelled.inc()
                    event(_log, "job.cancelled", executed=executed)
                    return self.queue.update(job.id, state="cancelled",
                                             executed=executed)
                if self._stop.is_set():
                    # Graceful shutdown: persist progress and hand the
                    # job back to the queue so the next start resumes it
                    # without the requeue_running recovery pass.
                    event(_log, "job.requeued", executed=executed,
                          reason="service stopping")
                    return self.queue.update(job.id, state="queued",
                                             executed=executed,
                                             cancel_requested=False)
                chunk = pending[start:start + self.chunk_size]
                began = time.perf_counter()
                done, _ = self.store.campaign.run(
                    [config for config, _ in chunk], workers=self.workers,
                    checkpoint_every=self.checkpoint_every)
                wall = time.perf_counter() - began
                executed += done
                self._m_executed.inc(done)
                self._m_busy_seconds.inc(wall)
                self._m_chunk_seconds.observe(wall)
                chunk_events = self._chunk_kernel_events(chunk)
                if chunk_events:
                    self._m_kernel_events.inc(chunk_events)
                self._update_rates()
                self.queue.update(job.id, executed=executed)
                self._notify_progress()
                event(_log, "job.chunk", executed=executed,
                      pending=len(pending) - start - len(chunk),
                      chunk=len(chunk), wall_seconds=round(wall, 6),
                      kernel_events=chunk_events)
        except CampaignError as exc:
            # Partial progress is already persisted; account for it.
            self._m_failed.inc()
            self._m_executed.inc(exc.executed)
            event(_log, "job.failed", level=logging.ERROR,
                  executed=executed + exc.executed, error=str(exc))
            return self.queue.update(job.id, state="failed",
                                     executed=executed + exc.executed,
                                     error=str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._m_failed.inc()
            event(_log, "job.failed", level=logging.ERROR, error=str(exc))
            return self.queue.update(job.id, state="failed",
                                     executed=executed, error=str(exc))
        self._m_completed.inc()
        event(_log, "job.completed", executed=executed,
              cache_hits=cache_hits, total=len(configs))
        return self.queue.update(job.id, state="done", executed=executed)

    def _chunk_kernel_events(self, chunk: List[Tuple[Any, str]]) -> int:
        """Kernel events fired by the records a chunk just persisted,
        read back from their wall-clock ``runtime`` blocks (0 when the
        records carry none — e.g. fluid-tier runs)."""
        total = 0
        for _, key in chunk:
            record = self.store.campaign.load_key(key)
            events = ((record or {}).get("runtime") or {}).get("events")
            if events:
                total += int(events)
        return total

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------
    def _loop(self, poll: float) -> None:
        while not self._stop.is_set():
            if self.process_once() is None:
                self._wake.wait(timeout=poll)
                self._wake.clear()

    def start(self, poll: float = 0.5) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(poll,), daemon=True,
            name="repro-campaign-scheduler")
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the scheduler thread gracefully.

        The running job (if any) is requeued at its next chunk boundary
        with its progress persisted — see :meth:`_run_job_body` — and a
        final ``requeue_running`` sweeps up anything that was still
        marked running if the thread failed to exit in time.
        """
        self._stop.set()
        self._wake.set()
        event(_log, "service.stopping")
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.queue.requeue_running()
        self._update_queue_depth()
        self._notify_progress()
        event(_log, "service.stopped")
