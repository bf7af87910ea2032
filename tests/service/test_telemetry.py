"""Service telemetry: /metrics, live progress, graceful-stop requeue.

Covers the operational layer end to end: the Prometheus endpoint is
*parser*-validated (not substring-grepped), the long-poll progress feed
versions correctly, a simulated shutdown signal requeues the running job
with progress persisted, verbose HTTP logs come out as uniform JSONL,
and observe-off records degrade to clean 404s on the series endpoints.
"""

import io
import json
import logging
import multiprocessing
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import _make_shutdown_handler
from repro.service import CampaignService, make_server
from repro.sim import experiment
from repro.sim.campaign import parallel_map
from repro.telemetry.log import configure, get_logger
from repro.telemetry.metrics import parse_exposition, sample_value

pytestmark = pytest.mark.service

SPEC = {"protocol": "byzcast", "param": "mute", "values": [0, 1],
        "seeds": [1], "n": 8, "messages": 1, "interval": 1.0,
        "warmup": 4.0, "drain": 6.0}


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def _double(value):
    return value * 2


class TestMetricsEndpoint:
    def test_metrics_parse_and_count_jobs(self, server):
        service, base = server
        service.submit(SPEC)
        assert service.run_until_idle() == 1

        request = urllib.request.urlopen(f"{base}/metrics")
        with request as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            families = parse_exposition(response.read().decode())

        assert sample_value(families, "repro_jobs_submitted_total") == 1
        assert sample_value(families, "repro_jobs_completed_total") == 1
        assert sample_value(families, "repro_records_executed_total") == 2
        assert sample_value(families, "repro_configs_total") == 2
        assert sample_value(families, "repro_kernel_events_total") > 0
        assert sample_value(families, "repro_worker_busy") == 0
        assert sample_value(families, "repro_queue_depth") == 0
        hist = families["repro_chunk_seconds"]
        assert hist.kind == "histogram"
        assert hist.value(series="repro_chunk_seconds_count") >= 1

    def test_cache_hit_rate_after_resubmit(self, service):
        service.submit(SPEC)
        service.run_until_idle()
        service.submit(SPEC)
        service.run_until_idle()
        families = parse_exposition(service.metrics_text())
        assert sample_value(families, "repro_cache_hits_total") == 2
        assert sample_value(families, "repro_cache_hit_rate") == 0.5
        # The second job recomputed nothing.
        assert sample_value(families, "repro_records_executed_total") == 2

    def test_failed_job_counted(self, service):
        service.submit({"param": "n", "values": [1]})
        service.run_until_idle()
        families = parse_exposition(service.metrics_text())
        assert sample_value(families, "repro_jobs_failed_total") == 1
        assert sample_value(families, "repro_jobs_completed_total") == 0


class TestProgress:
    def test_immediate_snapshot_and_terminal_short_circuit(self, service):
        job = service.submit(SPEC)
        snap = service.progress(job.id, since=-1, timeout=0.0)
        assert snap["state"] == "queued"
        assert snap["pending"] == 0          # grid not yet expanded
        service.run_until_idle()
        began = time.monotonic()
        done = service.progress(job.id, since=snap["version"] + 10_000,
                                timeout=5.0)
        # Terminal jobs return immediately even with an unseen version.
        assert time.monotonic() - began < 1.0
        assert done["state"] == "done"
        assert done["cache_hits"] + done["executed"] == done["total"] == 2
        assert done["pending"] == 0

    def test_unknown_job_returns_none(self, service):
        assert service.progress("nope", timeout=0.0) is None

    def test_poll_wakes_on_progress_notification(self, service):
        job = service.submit(SPEC)
        version = service.progress(job.id, since=-1,
                                   timeout=0.0)["version"]
        result = {}

        def poll():
            result["payload"] = service.progress(job.id, since=version,
                                                 timeout=10.0)

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        time.sleep(0.1)                     # poller is parked on the cond
        service.submit(dict(SPEC, seeds=[2]))   # any change bumps version
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["payload"]["version"] > version

    def test_http_long_poll_route(self, server):
        service, base = server
        job = service.submit(SPEC)
        service.run_until_idle()
        payload = get_json(
            f"{base}/api/jobs/{job.id}/progress?since=-1&timeout=1")
        assert payload["state"] == "done"
        assert payload["total"] == 2

    def test_http_long_poll_errors(self, server):
        service, base = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{base}/api/jobs/missing/progress?timeout=0")
        assert excinfo.value.code == 404
        job = service.submit(SPEC)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{base}/api/jobs/{job.id}/progress?since=pretzel")
        assert excinfo.value.code == 400


class TestGracefulStop:
    def test_stop_flag_requeues_running_job_with_progress(self, service):
        """The SIGTERM path, driven deterministically: the stop flag is
        raised before the scheduler reaches its first chunk boundary, so
        the claimed job must go back to ``queued`` — not failed, not
        cancelled — ready for the next service start."""
        job = service.submit(SPEC)
        service._stop.set()
        processed = service.run_until_idle()
        assert processed == 1
        requeued = service.queue.get(job.id)
        assert requeued.state == "queued"
        assert not requeued.cancel_requested
        assert requeued.error is None
        families = parse_exposition(service.metrics_text())
        assert sample_value(families, "repro_jobs_completed_total") == 0
        assert sample_value(families, "repro_jobs_failed_total") == 0
        assert sample_value(families, "repro_queue_depth") == 1

        # The next start (same directory) finishes the job normally.
        service._stop.clear()
        assert service.run_until_idle() == 1
        finished = service.queue.get(job.id)
        assert finished.state == "done"
        assert finished.executed + finished.cache_hits == 2

    def test_stop_requeues_even_mid_job(self, tmp_path):
        """With chunk_size=1 the stop lands *between* chunks: executed
        work is persisted on the requeued job and in the store."""
        service = CampaignService(str(tmp_path / "svc"), chunk_size=1)
        job = service.submit(SPEC)
        claimed = service.queue.claim_next()
        assert claimed.id == job.id

        # Run exactly one chunk, then stop before the second.
        original = service.store.campaign.run

        def run_then_stop(configs, **kwargs):
            service._stop.set()
            return original(configs, **kwargs)

        service.store.campaign.run = run_then_stop
        try:
            service._run_job(claimed)
        finally:
            service.store.campaign.run = original

        requeued = service.queue.get(job.id)
        assert requeued.state == "queued"
        assert requeued.executed == 1
        assert len(service.store.keys()) == 1

        service._stop.clear()
        service.run_until_idle()
        finished = service.queue.get(job.id)
        assert finished.state == "done"
        assert len(service.store.keys()) == 2

    def test_shutdown_handler_requests_server_shutdown(self):
        """The ``repro serve`` signal handler: prints which signal it
        got and asks serve_forever to return from *another* thread
        (shutdown() called on the serving thread would deadlock)."""
        called = threading.Event()

        class FakeServer:
            def shutdown(self):
                called.set()

        out = io.StringIO()
        handler = _make_shutdown_handler(FakeServer(), out)
        handler(signal.SIGTERM, None)
        assert called.wait(timeout=5.0)
        assert "received SIGTERM; shutting down" in out.getvalue()

    def test_service_stop_joins_thread_and_requeues(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        service.start(poll=0.05)
        service.stop(timeout=10.0)
        assert service._thread is None
        # Stop is idempotent and safe with nothing running.
        service.stop(timeout=1.0)

    def test_pool_reap_survives_parent_sigterm_handler(self):
        """Pool.terminate() reaps workers with SIGTERM.  With the serve
        shutdown handler installed in the parent, forked workers used to
        inherit it, swallow the reap signal, and hang the pool's join —
        pool_worker_init must reset worker handlers so parallel_map
        returns."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            done = []
            runner = threading.Thread(
                target=lambda: done.append(
                    parallel_map(_double, [1, 2, 3, 4], workers=2)),
                daemon=True)
            runner.start()
            runner.join(timeout=60.0)
            assert done, "parallel_map hung under a parent SIGTERM handler"
            assert done[0] == [2, 4, 6, 8]
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_pool_reap_reaches_a_worker_that_has_not_initialised(
            self, monkeypatch):
        """The first worker can finish every task before the second has
        run its initializer; the reap SIGTERM then reaches a worker still
        holding the parent's handler.  Forced here by delaying every
        initializer but the first."""
        started = multiprocessing.Value("i", 0)
        real_init = experiment.pool_worker_init

        def late_init():
            with started.get_lock():
                index = started.value
                started.value += 1
            if index:
                time.sleep(1.0)
            real_init()

        monkeypatch.setattr(experiment, "pool_worker_init", late_init)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            done = []
            runner = threading.Thread(
                target=lambda: done.append(
                    parallel_map(_double, [1, 2, 3, 4], workers=2)),
                daemon=True)
            runner.start()
            runner.join(timeout=30.0)
            assert done, "the reap was swallowed by a late worker"
            assert done[0] == [2, 4, 6, 8]
            assert started.value == 2
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestStructuredHttpLogs:
    def teardown_method(self):
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_telemetry", False):
                root.removeHandler(handler)

    def test_verbose_requests_log_jsonl(self, tmp_path):
        stream = io.StringIO()
        configure(stream)
        service = CampaignService(str(tmp_path / "svc"))
        httpd = make_server(service, verbose=True)
        host, port = httpd.server_address[:2]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            get_json(f"http://{host}:{port}/api/health")
        finally:
            httpd.shutdown()
            httpd.server_close()
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        requests = [line for line in lines
                    if line.get("event") == "http.request"]
        assert requests, lines
        assert "/api/health" in requests[0]["message"]
        assert requests[0]["logger"] == "repro.service.http"

    def test_quiet_by_default(self, server, capsys):
        _, base = server
        get_json(f"{base}/api/health")
        captured = capsys.readouterr()
        assert "api/health" not in captured.err
        assert "api/health" not in captured.out


class TestObserveOffRecords:
    def test_series_endpoints_404_cleanly(self, server):
        """Records produced without ``observe`` have ``metrics: null``;
        the CSV/trace projections must 404 with a JSON error body, never
        KeyError into a 500."""
        service, base = server
        job = service.submit(dict(SPEC, values=[0]))
        service.run_until_idle()
        job = service.queue.get(job.id)
        (key,) = job.keys

        record = get_json(f"{base}/api/records/{key}")
        assert record["metrics"] is None

        for view in ("series.csv", "trace.json"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/api/records/{key}/{view}")
            assert excinfo.value.code == 404
            body = json.load(excinfo.value)
            assert "observe" in body["error"]

    def test_store_projections_return_none(self, service):
        from repro.service.store import ResultStore
        record = {"key": "k", "metrics": None}
        assert ResultStore.series_of(record) is None
        assert ResultStore.series_csv(record) is None
        assert ResultStore.counter_trace(record) is None

    def test_ragged_series_pad_instead_of_raising(self):
        from repro.service.store import ResultStore
        record = {"key": "k", "protocol": "byzcast", "n": 8, "seed": 1,
                  "metrics": {"series": {"time": [0.0, 1.0, 2.0],
                                         "sent": [1.0, 2.0],
                                         "broken": None}}}
        csv = ResultStore.series_csv(record)
        lines = csv.splitlines()
        assert lines[0] == "time,broken,sent"
        assert lines[3] == "2.0,,"          # short + null columns pad
        trace = ResultStore.counter_trace(record)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 2           # stops at the short column
