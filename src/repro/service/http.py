"""The service's HTTP layer — stdlib ``http.server``, no new deps.

Routes (all JSON unless noted):

========  ==================================  ===============================
method    path                                what
========  ==================================  ===============================
GET       /                                   static dashboard (HTML)
GET       /metrics                            Prometheus text exposition
GET       /api/health                         liveness probe
GET       /api/stats                          aggregate counters + hit rate
GET       /api/jobs                           all jobs, submission order
POST      /api/jobs                           submit a sweep spec (JSON body)
GET       /api/jobs/<id>                      one job
GET       /api/jobs/<id>/progress             long-poll live progress
POST      /api/jobs/<id>/cancel               cancel (bounded latency)
GET       /api/records                        record summaries
GET       /api/records/<key>                  full campaign record
GET       /api/records/<key>/series.csv       metric series (text/csv)
GET       /api/records/<key>/trace.json       Perfetto trace_event counters
========  ==================================  ===============================

Errors are ``{"error": ...}`` bodies: 400 for malformed specs/JSON or a
bad ``Content-Length``, 413 for a body over :data:`MAX_BODY_BYTES`, 404
for unknown jobs, records, or routes.  The server is a
``ThreadingHTTPServer``; handlers only touch the thread-safe
:class:`CampaignService` surface (queue lock inside).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from ..telemetry.log import event, get_logger
from .dashboard import DASHBOARD_HTML
from .scheduler import CampaignService
from .spec import SpecError

__all__ = ["ServiceHandler", "make_server", "MAX_BODY_BYTES"]

_log = get_logger("service.http")

#: Largest request body the server reads (a sweep spec is under 1 KiB).
MAX_BODY_BYTES = 1 << 20


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; dispatches on (method, split path)."""

    #: Bound by :func:`make_server`.
    service: CampaignService = None  # type: ignore[assignment]
    #: Quiet by default; ``make_server(verbose=True)`` restores logging.
    verbose = False

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        # Route through the structured logger instead of the stdlib's
        # stderr formatting so verbose service logs stay uniform JSONL.
        if self.verbose:
            event(_log, "http.request",
                  client=self.client_address[0],
                  message=format % args)

    # ------------------------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, indent=1, sort_keys=True).encode()
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _refuse(self, code: int, message: str) -> None:
        """An error about the body's framing or shape; the body may be
        unread, so the connection closes after it."""
        self.close_connection = True
        self._error(code, message)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or ``None`` once an error is sent."""
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            self._refuse(400, "Content-Length must be a non-negative "
                         "integer")
            return None
        if int(length) > MAX_BODY_BYTES:
            self._refuse(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(int(length))
        if not raw:
            self._error(400, "empty request body; expected a JSON spec")
            return None
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(body, dict):
            self._refuse(400, "request body must be a JSON object")
            return None
        return body

    def _parts(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        """Query parameters, last value winning."""
        if "?" not in self.path:
            return {}
        return {key: values[-1] for key, values in
                parse_qs(self.path.split("?", 1)[1]).items()}

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parts = self._parts()
        if parts == () or parts == ("dashboard",):
            self._send(200, DASHBOARD_HTML.encode(),
                       "text/html; charset=utf-8")
            return
        if parts == ("metrics",):
            body = self.service.metrics_text().encode()
            self._send(200, body,
                       "text/plain; version=0.0.4; charset=utf-8")
            return
        if parts == ("api", "health"):
            self._json(200, {"status": "ok",
                             "directory": self.service.directory})
            return
        if parts == ("api", "stats"):
            self._json(200, self.service.stats())
            return
        if parts == ("api", "jobs"):
            self._json(200, [job.to_dict()
                             for job in self.service.queue.jobs()])
            return
        if len(parts) == 3 and parts[:2] == ("api", "jobs"):
            job = self.service.queue.get(parts[2])
            if job is None:
                self._error(404, f"no such job {parts[2]!r}")
                return
            self._json(200, job.to_dict())
            return
        if (len(parts) == 4 and parts[:2] == ("api", "jobs")
                and parts[3] == "progress"):
            self._progress_get(parts[2])
            return
        if parts == ("api", "records"):
            self._json(200, self.service.store.summaries())
            return
        if len(parts) >= 3 and parts[:2] == ("api", "records"):
            self._records_get(parts[2:])
            return
        self._error(404, f"no such route GET {self.path}")

    #: Ceiling on one long-poll's block time; clients re-poll with the
    #: returned version, so a short ceiling costs nothing but a request.
    MAX_POLL_SECONDS = 30.0

    def _progress_get(self, job_id: str) -> None:
        """Long-poll one job's chunk-granular progress.

        ``?since=<version>`` blocks until the service's progress version
        passes it (or ``?timeout=<seconds>`` elapses, default 25, capped
        at :data:`MAX_POLL_SECONDS`); omit ``since`` for an immediate
        snapshot.  Terminal jobs always return immediately.
        """
        query = self._query()
        try:
            since = int(query.get("since", -1))
            timeout = min(float(query.get("timeout", 25.0)),
                          self.MAX_POLL_SECONDS)
        except ValueError:
            self._error(400, "since/timeout must be numeric")
            return
        payload = self.service.progress(job_id, since=since,
                                        timeout=timeout)
        if payload is None:
            self._error(404, f"no such job {job_id!r}")
            return
        self._json(200, payload)

    def _records_get(self, parts: Tuple[str, ...]) -> None:
        record = self.service.store.load_key(parts[0])
        if record is None:
            self._error(404, f"no record for key {parts[0]!r}")
            return
        if len(parts) == 1:
            self._json(200, record)
            return
        if parts[1:] not in (("series.csv",), ("trace.json",)):
            self._error(404, f"no such route GET {self.path}")
            return
        csv = parts[1] == "series.csv"
        store = self.service.store
        view = (store.series_csv if csv else store.counter_trace)(record)
        if view is None:
            self._error(404, f"record {parts[0]!r} has no metric series "
                        "(submit the spec with \"observe\": true)")
        elif csv:
            self._send(200, view.encode(), "text/csv; charset=utf-8")
        else:
            self._json(200, view)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        parts = self._parts()
        if parts == ("api", "jobs"):
            spec = self._read_body()
            if spec is None:
                return
            try:
                job = self.service.submit(spec)
            except SpecError as exc:
                self._error(400, f"bad spec: {exc}")
                return
            self._json(201, job.to_dict())
            return
        if (len(parts) == 4 and parts[:2] == ("api", "jobs")
                and parts[3] == "cancel"):
            job = self.service.cancel(parts[2])
            if job is None:
                self._error(404, f"no such job {parts[2]!r}")
                return
            self._json(200, job.to_dict())
            return
        self._error(404, f"no such route POST {self.path}")


def make_server(service: CampaignService, host: str = "127.0.0.1",
                port: int = 0, *,
                verbose: bool = False) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.server_address``.  Call ``serve_forever()`` (typically on a
    thread) and ``shutdown()``/``server_close()`` to stop.
    """
    handler = type("BoundServiceHandler", (ServiceHandler,),
                   {"service": service, "verbose": verbose})
    return ThreadingHTTPServer((host, port), handler)
