"""The three campaign-service workloads: one client, closed loop.

Every pass boots a fresh ``python -m repro serve --workers 2`` (a
subprocess, so client and server do not share an interpreter lock).
``svc_sweep`` boots it on an empty state directory, submits one
eight-config sweep and waits for it.  The two read workloads do that once,
in their warm-up pass, and boot every later pass on a copy of the state it
left, so each pass meets the same full store and the same one-job queue.
The client opens one ``urllib`` connection per request, as ``repro
submit`` does.  The measured operation is:

* ``svc_sweep``      — the cold submit→done (the *write* use of the store);
* ``svc_resubmit``   — identical resubmits, all cache hits;
* ``svc_record_get`` — ``GET /api/records/<key>`` over the eight keys.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service import CampaignService, SweepSpec, make_server
from repro.sim.campaign import Campaign
from repro.sim.checkpoint import config_key

from .checks import Gate, digest_of
from .harness import PassSample, Session
from .metrics import median
from .trace import Tracer, install

__all__ = ["SvcWorkload", "SVC_WORKLOADS", "sweep_spec"]

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
_TERMINAL = ("done", "failed", "cancelled")
GRID = 8


def sweep_spec(seed: int) -> Dict[str, Any]:
    """byzcast, n=30, mute in {0, 2} x four seeds, observed — the shape of
    ``examples/sweep_mute_grid.json``."""
    return {"protocol": "byzcast", "param": "mute", "values": [0, 2],
            "seeds": [seed + i for i in range(4)], "n": 30, "messages": 3,
            "interval": 1.0, "warmup": 5.0, "drain": 8.0, "observe": True}


# ----------------------------------------------------------------------
# Client and server plumbing
# ----------------------------------------------------------------------
def _request(url: str, body: Optional[Dict[str, Any]] = None
             ) -> Tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _submit_and_wait(base: str, spec: Dict[str, Any]
                     ) -> Tuple[float, Dict[str, Any]]:
    """POST the spec, long-poll its progress to a terminal state; host
    seconds from the POST being sent to that state being seen."""
    start = perf_counter()
    status, body = _request(base + "/api/jobs", spec)
    if status != 201:
        return perf_counter() - start, {"state": f"http {status}"}
    job_id = json.loads(body)["id"]
    version = -1
    while True:
        status, body = _request(
            f"{base}/api/jobs/{job_id}/progress?since={version}&timeout=20")
        progress = json.loads(body) if status == 200 else {
            "state": f"http {status}"}
        if status != 200 or progress["state"] in _TERMINAL:
            return perf_counter() - start, progress
        version = progress["version"]


class _ServerProcess:
    """``python -m repro serve`` on an ephemeral port, reaped on exit."""

    def __init__(self, directory: str, workers: int = 2) -> None:
        self._directory = directory
        self._workers = workers
        self._process: Optional[subprocess.Popen] = None
        self.base = ""
        self.boot_s = 0.0

    def __enter__(self) -> "_ServerProcess":
        env = dict(os.environ, PYTHONPATH=_SRC)
        start = perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dir",
             self._directory, "--port", "0", "--workers",
             str(self._workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        try:
            banner = self._process.stdout.readline()
            if "listening on " not in banner:
                raise RuntimeError(f"repro serve said {banner!r}")
            self.base = banner.split("listening on ", 1)[1].strip()
            deadline = start + 60.0
            while _health(self.base) != 200:
                if perf_counter() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                sleep(0.005)
            self.boot_s = perf_counter() - start
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        process = self._process
        if process is None:
            return
        self._process = None
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def _health(base: str) -> int:
    try:
        return _request(base + "/api/health")[0]
    except OSError:
        return 0


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SvcWorkload:
    name: str
    why: str
    #: The measured leg and how many requests one pass makes of it.
    leg: str
    requests: int
    unit_of_work: str

    def open(self, seed: int, gate: Gate, workdir: str) -> "SvcSession":
        return SvcSession(self, seed, gate, workdir)


SVC_WORKLOADS = (
    SvcWorkload(
        "svc_sweep",
        "cold sweep through the service at 2 workers: pool start-up, record "
        "build and persist, queue writes, scheduler wake, obs on; the "
        "write use of the store",
        leg="cold", requests=1, unit_of_work="kernel events"),
    SvcWorkload(
        "svc_resubmit",
        "identical resubmits, all cache hits: parse, queue writes, wake, "
        "eight has_key, queue writes: pure service overhead, no simulation",
        leg="resubmit", requests=50, unit_of_work="resubmitted jobs"),
    SvcWorkload(
        "svc_record_get",
        "GET /api/records/<key>, one connection per request: HTTP stack, one "
        "file read, re-serialise: the read use of the store",
        leg="get", requests=400, unit_of_work="requests"),
)


class SvcSession(Session):

    def __init__(self, workload: SvcWorkload, seed: int, gate: Gate,
                 workdir: str) -> None:
        self.workload = workload
        self.unit_of_work = workload.unit_of_work
        self.gate = gate
        self.workdir = workdir
        self.seed = seed
        self.spec = sweep_spec(seed)
        self.digest: Optional[str] = None
        self.records: List[Dict[str, Any]] = []
        self._dirs = 0
        self._template: Optional[str] = None
        self._keys: List[str] = []

    def _fresh_dir(self, label: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{label}{self._dirs}")

    # ------------------------------------------------------------------
    def _cold(self, base: str) -> Tuple[float, List[str]]:
        """Submit the sweep to an empty store; its seconds and keys."""
        seconds, progress = _submit_and_wait(base, self.spec)
        self.gate.check(
            progress.get("state") == "done"
            and progress.get("total") == GRID
            and progress.get("executed") == GRID
            and progress.get("cache_hits") == 0,
            f"cold job ended as {progress}")
        status, body = _request(f"{base}/api/jobs/{progress.get('id')}")
        keys = json.loads(body).get("keys", []) if status == 200 else []
        self.gate.check(len(keys) == GRID, f"cold job lists {len(keys)} keys")
        return seconds, keys

    def _resubmits(self, base: str, count: int) -> List[float]:
        out = []
        for _ in range(count):
            seconds, progress = _submit_and_wait(base, self.spec)
            self.gate.check(
                progress.get("state") == "done"
                and progress.get("cache_hits") == GRID
                and progress.get("executed") == 0,
                f"resubmit ended as {progress}")
            out.append(seconds)
        return out

    def _gets(self, base: str, keys: Sequence[str], count: int
              ) -> Tuple[List[float], List[Dict[str, Any]], int]:
        """``count`` record fetches round-robin over ``keys``; seconds of
        each (request sent to body read), the first record seen of each
        key, and the body size."""
        seconds: List[float] = []
        records: Dict[str, Dict[str, Any]] = {}
        size = 0
        for i in range(count):
            key = keys[i % len(keys)]
            start = perf_counter()
            status, body = _request(f"{base}/api/records/{key}")
            seconds.append(perf_counter() - start)
            record = json.loads(body) if status == 200 else {}
            self.gate.check(status == 200 and record.get("key") == key,
                            f"GET record {key}: http {status}")
            records.setdefault(key, record)
            size = len(body)
        return seconds, [records[key] for key in keys if key in records], size

    def _check_records(self, records: List[Dict[str, Any]],
                       where: str) -> None:
        digest = digest_of(records)
        if self.digest is None:
            self.digest, self.records = digest, records
        self.gate.check(digest == self.digest,
                        f"{where}: sim_digest {digest[:12]} differs from "
                        f"the first pass's {self.digest[:12]}")

    def run_pass(self) -> PassSample:
        workload = self.workload
        if workload.leg == "cold" or self._template is None:
            state = self._fresh_dir("state")
        else:
            # The read workloads start every pass from the same full
            # store and one-job queue: a copy of what the first pass's
            # cold sweep left behind.
            state = shutil.copytree(self._template, self._fresh_dir("state"))
        cold_s = 0.0
        with _ServerProcess(state) as server:
            if workload.leg == "cold" or self._template is None:
                cold_s, self._keys = self._cold(server.base)
            resubmit_s = (self._resubmits(server.base, workload.requests)
                          if workload.leg == "resubmit" else [])
            # Every workload reads the eight records back: they carry the
            # modelled numbers and the digest.
            get_s, records, _ = self._gets(
                server.base, self._keys,
                workload.requests if workload.leg == "get" else GRID)
            boot_s = server.boot_s
        self._check_records(records, "pass")
        if workload.leg == "cold":
            return PassSample(
                setup_s=boot_s, run_wall_s=cold_s,
                work=sum(r["runtime"]["events"] for r in records),
                # one op = one experiment, as the worker that ran it
                # timed it
                op_ms=[r["runtime"]["wall_seconds"] * 1e3 for r in records])
        if self._template is None:
            self._template = shutil.copytree(state,
                                             self._fresh_dir("template"))
        leg = get_s if workload.leg == "get" else resubmit_s
        return PassSample(setup_s=boot_s, run_wall_s=sum(leg),
                          work=len(leg), op_ms=[s * 1e3 for s in leg])

    # ------------------------------------------------------------------
    def trace(self, baseline_wall: float, op_ms: Sequence[float],
              trace_out: Optional[str]) -> Dict[str, float]:
        """The same pipeline against an in-process service (one worker,
        so every layer runs where the wrappers can see it), once bare and
        once traced, then the campaign fabric called directly."""
        bare = self._in_process()
        tracer = Tracer()
        with install(tracer, SERVICE_TARGETS):
            traced = self._in_process()
        if trace_out:
            from .export import write_chrome
            self.gate.check(
                write_chrome(tracer, self.workload.name, trace_out),
                "chrome trace failed repro.obs.validate_chrome")
        totals = tracer.totals()

        def mean_ms(*names: str) -> float:
            count = sum(totals[n].count for n in names if n in totals)
            seconds = sum(totals[n].seconds for n in names if n in totals)
            return seconds / count * 1e3 if count else 0.0

        writes = ("service.queue.submit", "service.queue.update",
                  "service.queue.claim")
        jobs = totals["service.scheduler.job"]
        claims = tracer.spans("service.queue.claim")
        wakes = []
        for _, submitted in tracer.spans("service.queue.submit"):
            later = [start for start, _ in claims if start >= submitted]
            if later:
                wakes.append(later[0] - submitted)
        named = sum(slot.self_seconds for slot in totals.values())
        out = {
            "service.queue.writes": sum(totals[n].count for n in writes),
            "service.queue.write_ms": mean_ms(*writes),
            "service.scheduler.job_self_ms":
                (jobs.seconds - totals["sim.campaign.run"].seconds)
                / jobs.count * 1e3,
            "service.scheduler.wake_ms":
                median(wakes) * 1e3 if wakes else 0.0,
            "service.store.load_key_ms": mean_ms("service.store.load_key"),
            "service.http.record_bytes": traced["record_bytes"],
            "service.http.record_get_p95_ms": traced["get_p95_ms"],
            "service.http.resubmit_p95_ms": traced["resubmit_p95_ms"],
            "service.http.health_get_ms": traced["health_ms"],
            "service.http.metrics_get_ms": traced["metrics_ms"],
            "service.http.request_self_ms":
                traced["get_p50_ms"] - mean_ms("service.store.load_key"),
            "des.kernel.events": traced["events"],
            "model.sim_latency_s": self.model()["sim_latency_s"],
            "core.protocol.handle_packets":
                totals["core.protocol.handle_packet"].count,
            "core.protocol.handle_packet_self_s":
                totals["core.protocol.handle_packet"].self_seconds,
            "trace.spans": tracer.span_count(),
            "trace.overhead_share": traced["wall_s"] / bare["wall_s"] - 1.0,
            "trace.coverage_share": named / traced["wall_s"],
        }
        out.update(self._campaign_fabric())
        return out

    def _in_process(self) -> Dict[str, float]:
        service = CampaignService(self._fresh_dir("inproc"), workers=1)
        server = make_server(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        try:
            start = perf_counter()
            health = []
            for _ in range(50):
                began = perf_counter()
                self.gate.check(_health(base) == 200, "in-process health")
                health.append(perf_counter() - began)
            _, keys = self._cold(base)
            resubmits = self._resubmits(base, 30)
            gets, records, size = self._gets(base, keys, 300)
            metrics = []
            for _ in range(20):
                began = perf_counter()
                status, _ = _request(base + "/metrics")
                metrics.append(perf_counter() - began)
                self.gate.check(status == 200, f"GET /metrics: {status}")
            wall = perf_counter() - start
        finally:
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        self._check_records(records, "in-process service")
        return {
            "wall_s": wall,
            "events": sum(r["runtime"]["events"] for r in records),
            "record_bytes": size,
            "health_ms": median(health) * 1e3,
            "metrics_ms": median(metrics) * 1e3,
            "get_p50_ms": median(gets) * 1e3,
            "get_p95_ms": sorted(gets)[int(len(gets) * 0.95)] * 1e3,
            "resubmit_p95_ms":
                sorted(resubmits)[int(len(resubmits) * 0.95)] * 1e3,
        }

    def _campaign_fabric(self) -> Dict[str, float]:
        """``Campaign.run`` called directly: serial, two workers, and a
        re-run over the full directory; spec parsing and config hashing."""
        start = perf_counter()
        for _ in range(20):
            configs = SweepSpec.from_dict(self.spec).expand()
        parse_ms = (perf_counter() - start) / 20 * 1e3
        start = perf_counter()
        for _ in range(20):
            for config in configs:
                config_key(config)
        key_us = (perf_counter() - start) / (20 * len(configs)) * 1e6

        tracer = Tracer()
        serial = Campaign(self._fresh_dir("w1"))
        with install(tracer, CAMPAIGN_TARGETS):
            start = perf_counter()
            serial.run(configs, workers=1)
            serial_s = perf_counter() - start
        run_self = tracer.totals()["sim.campaign.run"].self_seconds
        # The service's records are the records a plain serial campaign
        # over the same grid writes.
        self._check_records(
            [serial.load_key(config_key(config)) or {}
             for config in configs], "serial campaign")

        start = perf_counter()
        executed, skipped = serial.run(configs, workers=1)
        skip_ms = (perf_counter() - start) * 1e3
        self.gate.check((executed, skipped) == (0, GRID),
                        f"re-run executed {executed}, skipped {skipped}")

        pooled = Campaign(self._fresh_dir("w2"))
        start = perf_counter()
        pooled.run(configs, workers=2)
        pooled_s = perf_counter() - start
        in_workers = sum(r["runtime"]["wall_seconds"]
                         for r in pooled.records())
        self._check_records(
            [pooled.load_key(config_key(config)) or {}
             for config in configs], "two-worker campaign")
        return {
            "service.spec.parse_expand_ms": parse_ms,
            "sim.campaign.config_key_us": key_us,
            "sim.campaign.exps_per_s_w1": GRID / serial_s,
            "sim.campaign.exps_per_s_w2": GRID / pooled_s,
            "sim.campaign.self_s": run_self,
            "sim.campaign.skip_scan_ms": skip_ms,
            "sim.campaign.pool_overhead_s": pooled_s - in_workers / 2,
        }


#: ``(module, attribute, span name[, span name when the call returns
#: None])`` — an idle poll of the queue is not a write.
SERVICE_TARGETS = (
    ("repro.service.queue", "JobQueue.submit", "service.queue.submit"),
    ("repro.service.queue", "JobQueue.update", "service.queue.update"),
    ("repro.service.queue", "JobQueue.claim_next", "service.queue.claim",
     "service.queue.idle_poll"),
    ("repro.service.scheduler", "CampaignService.process_once",
     "service.scheduler.job", "service.scheduler.idle_poll"),
    ("repro.service.store", "ResultStore.load_key",
     "service.store.load_key"),
    ("repro.sim.campaign", "Campaign.run", "sim.campaign.run"),
    ("repro.sim.campaign", "run_experiment", "sim.experiment.run"),
    ("repro.core.protocol", "ByzantineBroadcastProtocol.handle_packet",
     "core.protocol.handle_packet"),
)

CAMPAIGN_TARGETS = (
    ("repro.sim.campaign", "Campaign.run", "sim.campaign.run"),
    ("repro.sim.campaign", "run_experiment", "sim.experiment.run"),
)
