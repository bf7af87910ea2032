"""HTTP handler unit tests: routes, error paths, cancel semantics.

The scheduler thread is deliberately NOT running — jobs stay queued, so
every assertion is deterministic.  End-to-end execution through the HTTP
layer lives in test_end_to_end.py.
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.service

SPEC = {"protocol": "byzcast", "seeds": [1], "n": 10,
        "messages": 1, "interval": 1.0, "warmup": 4.0, "drain": 6.0}


def get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return response.status, response.headers, response.read()


def get_json(base, path):
    status, _, body = get(base, path)
    return status, json.loads(body)


def post(base, path, payload=None, raw=None):
    data = raw if raw is not None else json.dumps(payload or {}).encode()
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def raw_post(base, content_length, body=b""):
    """POST /api/jobs over a bare socket with a verbatim Content-Length;
    read until the server closes, within 3 s.  Returns (status, payload)."""
    host, port = base[len("http://"):].split(":")
    head = (f"POST /api/jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n")
    received = b""
    with socket.create_connection((host, int(port)), timeout=3.0) as sock:
        sock.sendall(head.encode() + body)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    assert received, "no response"
    head, _, payload = received.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def error_of(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    exc = excinfo.value
    return exc.code, json.loads(exc.read())


class TestBasicRoutes:
    def test_health(self, server):
        service, base = server
        status, payload = get_json(base, "/api/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_dashboard_is_html(self, server):
        _, base = server
        status, headers, body = get(base, "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"repro campaign service" in body

    def test_stats_empty_service(self, server):
        _, base = server
        status, payload = get_json(base, "/api/stats")
        assert status == 200
        assert payload["jobs"] == 0
        assert payload["records"] == 0
        assert payload["cache_hit_rate"] is None

    def test_unknown_route_404(self, server):
        _, base = server
        code, payload = error_of(lambda: get(base, "/api/nope"))
        assert code == 404
        assert "no such route" in payload["error"]


class TestJobRoutes:
    def test_submit_queues_job(self, server):
        service, base = server
        status, job = post(base, "/api/jobs", SPEC)
        assert status == 201
        assert job["state"] == "queued"
        assert service.queue.get(job["id"]) is not None
        _, listing = get_json(base, "/api/jobs")
        assert [entry["id"] for entry in listing] == [job["id"]]

    def test_submit_bad_spec_400(self, server):
        _, base = server
        code, payload = error_of(
            lambda: post(base, "/api/jobs", {"protocol": "pigeon"}))
        assert code == 400
        assert "bad spec" in payload["error"]
        code, payload = error_of(
            lambda: post(base, "/api/jobs", {"bogus_knob": 1}))
        assert code == 400
        assert "unknown spec keys" in payload["error"]

    def test_submit_invalid_json_400(self, server):
        _, base = server
        code, payload = error_of(
            lambda: post(base, "/api/jobs", raw=b"{nope"))
        assert code == 400
        assert "not valid JSON" in payload["error"]

    def test_submit_empty_body_400(self, server):
        _, base = server
        code, payload = error_of(
            lambda: post(base, "/api/jobs", raw=b""))
        assert code == 400
        assert "empty request body" in payload["error"]

    @pytest.mark.parametrize("content_length", ["abc", "-1"])
    def test_bad_content_length_400(self, server, content_length):
        _, base = server
        code, payload = raw_post(base, content_length, b"{}")
        assert code == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_body_413_without_reading_it(self, server):
        service, base = server
        code, payload = raw_post(base, "100000000", b"{}")
        assert code == 413
        assert service.queue.jobs() == []

    @pytest.mark.parametrize("body", [b"null", b"[1, 2]", b"7"])
    def test_non_object_body_400(self, server, body):
        _, base = server
        code, payload = raw_post(base, len(body), body)
        assert code == 400
        assert "JSON object" in payload["error"]

    def test_unknown_job_404(self, server):
        _, base = server
        code, payload = error_of(
            lambda: get(base, "/api/jobs/j999999"))
        assert code == 404
        assert "no such job" in payload["error"]

    def test_cancel_queued_job(self, server):
        _, base = server
        _, job = post(base, "/api/jobs", SPEC)
        status, cancelled = post(base,
                                 f"/api/jobs/{job['id']}/cancel")
        assert status == 200
        assert cancelled["state"] == "cancelled"
        _, fetched = get_json(base, f"/api/jobs/{job['id']}")
        assert fetched["state"] == "cancelled"

    def test_cancel_unknown_job_404(self, server):
        _, base = server
        code, payload = error_of(
            lambda: post(base, "/api/jobs/j424242/cancel"))
        assert code == 404
        assert "no such job" in payload["error"]


class TestRecordRoutes:
    def test_unknown_record_404(self, server):
        _, base = server
        code, payload = error_of(
            lambda: get(base, "/api/records/ffff000000000000"))
        assert code == 404
        assert "no record" in payload["error"]

    def test_records_listing_empty(self, server):
        _, base = server
        status, payload = get_json(base, "/api/records")
        assert status == 200
        assert payload == []

    def test_series_of_unobserved_record_404(self, server):
        service, base = server
        # Plant a minimal record without metrics directly in the store.
        key = "00ab00ab00ab00ab"
        service.store.campaign._write(key, {"key": key, "metrics": None})
        code, payload = error_of(
            lambda: get(base, f"/api/records/{key}/series.csv"))
        assert code == 404
        assert "no metric series" in payload["error"]
        code, payload = error_of(
            lambda: get(base, f"/api/records/{key}/trace.json"))
        assert code == 404

    def test_unknown_record_subview_404(self, server):
        service, base = server
        key = "00cd00cd00cd00cd"
        service.store.campaign._write(key, {"key": key, "metrics": None})
        code, payload = error_of(
            lambda: get(base, f"/api/records/{key}/nope.bin"))
        assert code == 404
        assert "no such route" in payload["error"]
