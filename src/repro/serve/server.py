"""Stdlib-only serving front-end: JSON-over-HTTP plus an in-process client.

:class:`ServeApp` is the transport-free application object — it maps
``(method, path, payload)`` to ``(status, document)`` so tests can
exercise the full API without sockets.  :func:`make_server` wraps an
app in a ``http.server`` ``ThreadingHTTPServer``;
:class:`ServeClient` speaks to either an in-process app or a running
server, over one kept-alive connection, with the same call surface.

Transport
---------

The server speaks HTTP/1.1 and keeps connections alive, one handler
thread per connection, so a client sends many requests over one TCP
connection instead of paying a connect and a new thread for each.  A
connection idle for :data:`IDLE_TIMEOUT_S` seconds is closed.  The
handler sets ``TCP_NODELAY``: a reply leaves as two sends (headers,
then body), and on a kept-alive socket Nagle's algorithm would hold
the body until the client's delayed ACK of the headers, ~40 ms a reply.

At most :data:`MAX_CONNECTIONS` connections are served at once, idle
kept-alive ones included.  A connection over the limit gets ``503``
with ``Connection: close`` to its first request; it is not queued.
Every refusal (400 for a bad ``Content-Length``, 413, 503) carries
``Connection: close`` and the server closes the socket after it.

The state that concurrent requests share is locked: the
:class:`~repro.serve.registry.ArtifactRegistry` (entries, byte total,
counters, and single-flight cold builds, so N concurrent misses build
an artifact once) and the ``repro.obs``
:class:`~repro.obs.metrics.MetricsRegistry`.  The flight recorder and
slow-query log lock their own rings.

Endpoints
---------

``GET /healthz``
    Liveness plus scenario shape (probes, networks, end hour).
``GET /status``
    Uniform cache/registry counters from
    :func:`repro.perf.cache.iter_component_stats`, plus a ``process``
    block: uptime, code fingerprint, peak RSS, recorder stats.
``GET /metrics``
    The ``repro.obs`` registry snapshot (JSON), or the Prometheus text
    exposition with ``?format=prometheus``.
``GET /graph``
    The knowledge graph (nodes + edges, see :mod:`repro.serve.graph`).
``GET /debug/trace``
    The flight recorder: the last N completed request spans
    (``?limit=`` trims to the newest entries).
``GET /debug/slow``
    The slow-query log: structured entries for requests at or above
    the configured threshold.
``POST /query``
    One query object, or ``{"queries": [...]}`` for a coalesced batch.
    Every response echoes a per-request ``trace_id`` (client-supplied
    via a ``"trace_id"`` body key, else freshly minted).  A malformed or
    negative ``Content-Length`` or a body that is not UTF-8 JSON gets
    400, as does a malformed query (see
    :func:`repro.serve.queries.query_from_dict`); a declared body over
    :data:`MAX_BODY_BYTES` gets 413 unread, and a batch of more than
    :data:`MAX_BATCH_QUERIES` queries gets 413 before any query in it is
    parsed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.client import BadStatusLine, HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs import (
    get_logger,
    get_registry,
    metric_observe,
    telemetry_enabled,
    transient_span,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.recorder import FlightRecorder, SlowQueryLog
from repro.obs.trace import Span
from repro.perf.cache import code_fingerprint, iter_component_stats
from repro.perf.timing import RssSampler, current_rss_bytes
from repro.serve.engine import QueryEngine
from repro.serve.queries import query_from_dict, result_to_dict
from repro.serve.registry import ArtifactRegistry
from repro.serve.wire import request_trace_id

_log = get_logger("serve.server")

#: Largest ``POST`` body read, in bytes (a 32-query batch is ~3 KiB).
MAX_BODY_BYTES = 1 << 20

#: Most queries one ``POST {"queries": [...]}`` batch may carry.
MAX_BATCH_QUERIES = 1024

#: Most connections served at once, idle kept-alive ones included; a
#: connection over the limit gets one 503 and is closed.
MAX_CONNECTIONS = 64

#: Seconds a kept-alive connection may sit idle before the server closes it.
IDLE_TIMEOUT_S = 15.0

#: A response document: a JSON-ready dict, or pre-rendered plain text
#: (the Prometheus exposition) served verbatim.
Document = Union[Dict[str, Any], str]


def status_rows() -> List[Dict[str, Any]]:
    """Uniform component-stats rows (the ``/status`` document body)."""
    return [
        {"component": component, "identity": identity, **stats.as_dict()}
        for component, identity, stats in iter_component_stats()
    ]


class ServeApp:
    """The transport-independent serving application for one scenario."""

    def __init__(
        self,
        scenario: Any,
        registry: Optional[ArtifactRegistry] = None,
        key: Optional[str] = None,
        slow_query_ms: float = 250.0,
        flight_recorder: int = 64,
    ) -> None:
        self.scenario = scenario
        self.engine = QueryEngine(scenario, registry=registry, key=key)
        self.recorder = FlightRecorder(capacity=flight_recorder)
        self.slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        # Unstarted sampler: one manual /proc read per request/status call
        # tracks peak RSS without a thread per app.
        self._rss = RssSampler()
        self._started_monotonic = time.perf_counter()
        self._started_unix = time.time()

    def handle(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Document]:
        """Dispatch one request; returns ``(http status, document)``.

        The document is a JSON-ready dict, except for pre-rendered
        plain-text bodies (``/metrics?format=prometheus``) which come
        back as ``str``.
        """
        path, _, query_string = path.partition("?")
        params = {key: values[-1] for key, values in parse_qs(query_string).items()}
        try:
            if method == "GET":
                return self._get(path, params)
            if method == "POST" and path == "/query":
                return self._query(payload)
            return 404, {"error": f"no route for {method} {path}"}
        except ValueError as exc:
            return 400, {"error": str(exc)}

    def process_info(self) -> Dict[str, Any]:
        """Process vitals correlating recorder entries with process state."""
        self._rss.sample()
        return {
            "pid": os.getpid(),
            "uptime_seconds": round(time.perf_counter() - self._started_monotonic, 3),
            "started_unix": round(self._started_unix, 3),
            "code_fingerprint": code_fingerprint(),
            "peak_rss_bytes": self._rss.peak_bytes,
            "current_rss_bytes": current_rss_bytes(),
            "telemetry_enabled": telemetry_enabled(),
            "flight_recorder": self.recorder.stats(),
            "slow_queries": self.slow_log.stats(),
        }

    def _get(self, path: str, params: Dict[str, str]) -> Tuple[int, Document]:
        if path in ("/", "/healthz"):
            return 200, {
                "status": "ok",
                "probes": len(self.scenario.probes),
                "networks": list(self.scenario.isps),
                "end_hour": self.scenario.end_hour,
                "artifact_key": self.engine.key,
            }
        if path == "/metrics":
            form = params.get("format", "json")
            if form in ("prometheus", "text"):
                return 200, render_prometheus()
            if form == "json":
                return 200, get_registry().snapshot()
            raise ValueError(f"unknown metrics format {form!r}")
        if path == "/status":
            return 200, {"components": status_rows(), "process": self.process_info()}
        if path == "/debug/trace":
            limit = int(params["limit"]) if "limit" in params else None
            return 200, {
                "entries": self.recorder.entries(limit),
                "stats": self.recorder.stats(),
            }
        if path == "/debug/slow":
            limit = int(params["limit"]) if "limit" in params else None
            return 200, {
                "entries": self.slow_log.entries(limit),
                "stats": self.slow_log.stats(),
            }
        if path == "/graph":
            from repro.serve.graph import build_graph

            graph = build_graph(self.scenario)
            return 200, {
                "nodes": graph.nodes,
                "edges": graph.edges,
                "node_counts": graph.node_counts(),
                "edge_counts": graph.edge_counts(),
            }
        return 404, {"error": f"no route for GET {path}"}

    def _query(self, payload: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(payload, dict):
            raise ValueError("POST /query expects a JSON object")
        trace_id = request_trace_id(payload)
        batch = "queries" in payload
        if batch and not isinstance(payload["queries"], list):
            raise ValueError("a batch's \"queries\" must be a list")
        kind = "batch" if batch else str(payload.get("kind", "query"))
        name = f"batch[{len(payload['queries'])}]" if batch else kind
        self._rss.sample()
        status = "ok"
        request_span: Any = None
        start = time.perf_counter()
        try:
            # The flight recorder keeps the last N request trees; the
            # tracer keeps none, so a long-lived server does not grow.
            with transient_span(
                "serve/request", endpoint="/query", kind=kind, trace_id=trace_id
            ) as request_span:
                if batch:
                    queries = [query_from_dict(item) for item in payload["queries"]]
                    results = self.engine.run_batch(queries)
                    document = {
                        "results": [result_to_dict(result) for result in results],
                    }
                else:
                    result = self.engine.run(query_from_dict(payload))
                    document = {"result": result_to_dict(result)}
            document["trace_id"] = trace_id
            return 200, document
        except ValueError:
            status = "error"
            raise
        finally:
            elapsed = time.perf_counter() - start
            metric_observe("serve.query.seconds", elapsed, kind=kind)
            spans = (
                [request_span.as_dict()] if isinstance(request_span, Span) else None
            )
            self.recorder.record(
                name, elapsed, trace_id=trace_id, status=status, spans=spans
            )
            self.slow_log.observe(
                name, elapsed, trace_id=trace_id, detail={"kind": kind}
            )


class _Handler(BaseHTTPRequestHandler):
    # set by make_server on the subclass: the app, and the server's
    # MAX_CONNECTIONS connection slots
    app: ServeApp
    slots: threading.BoundedSemaphore

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # Headers and body leave in two sends: with Nagle's algorithm the
    # body waits for the client's delayed ACK (~40 ms a reply).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.admitted = self.slots.acquire(blocking=False)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            if self.admitted:
                self.slots.release()

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        if not self.admitted:
            self._refuse(503, f"server at its limit of {MAX_CONNECTIONS} connections")
            return False
        return True

    def _respond(self, status: int, document: Document, close: bool = False) -> None:
        if isinstance(document, str):
            body = document.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(document).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, document = self.app.handle("GET", self.path)
        self._respond(status, document)

    def _refuse(self, status: int, error: str) -> None:
        """Answer without reading the body, then drop the connection."""
        self._respond(status, {"error": error}, close=True)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            self._refuse(400, f"invalid Content-Length {declared!r}")
            return
        if length < 0:
            self._refuse(400, f"negative Content-Length {length}")
            return
        if length > MAX_BODY_BYTES:
            self._refuse(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            self._respond(400, {"error": f"invalid JSON body: {exc}"})
            return
        batch = payload.get("queries") if isinstance(payload, dict) else None
        if isinstance(batch, list) and len(batch) > MAX_BATCH_QUERIES:
            self._refuse(
                413, f"batch of {len(batch)} queries exceeds {MAX_BATCH_QUERIES}"
            )
            return
        status, document = self.app.handle("POST", self.path, payload)
        self._respond(status, document)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _log.debug("http " + format % args)


def make_server(app: ServeApp, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``host:port``.

    ``port=0`` picks a free port (``server.server_address`` has the
    real one) — what the tests use.
    """
    slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
    handler = type("BoundHandler", (_Handler,), {"app": app, "slots": slots})
    return ThreadingHTTPServer((host, port), handler)


class ServeClient:
    """One call surface over an in-process app or a remote server.

    Exactly one of ``app`` / ``base_url`` must be given.  The
    in-process form is what the test suite drives; the HTTP form holds
    one kept-alive ``http.client`` connection and returns the same
    parsed documents.  A connection the server has closed (a refusal's
    ``Connection: close``, or its idle timeout) is reopened for the
    next request: a request that finds a reused connection closed is
    sent once more on a fresh one.  Requests from several threads
    through one client take turns on its connection.
    """

    def __init__(
        self, app: Optional[ServeApp] = None, base_url: Optional[str] = None
    ) -> None:
        if (app is None) == (base_url is None):
            raise ValueError("ServeClient needs exactly one of app= or base_url=")
        self.app = app
        self.base_url = base_url.rstrip("/") if base_url else None
        self._conn: Optional[HTTPConnection] = None
        self._lock = threading.Lock()
        if self.base_url is not None:
            parts = urlsplit(self.base_url)
            self._address = (parts.hostname or "localhost", parts.port)
            self._path_prefix = parts.path

    def close(self) -> None:
        """Close the kept-alive connection (the next request reopens one)."""
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, str, str]:
        """``(status, content type, body text)`` of one request on the connection."""
        headers = {"Content-Type": "application/json"}
        while True:
            reused = self._conn is not None
            if not reused:
                self._conn = HTTPConnection(*self._address)
            try:
                self._conn.request(method, self._path_prefix + path, body=body, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
            except (ConnectionError, BadStatusLine):
                self._close()
                if reused:
                    continue  # the server closed the idle connection: one fresh try
                raise
            except BaseException:
                self._close()
                raise
            if response.will_close:
                self._close()
            return response.status, response.getheader("Content-Type", ""), raw.decode("utf-8")

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Document]:
        """Raw ``(status, document)`` for one request.

        Text documents (``/metrics?format=prometheus``) come back as
        ``str``; everything else is the parsed JSON object.
        """
        if self.app is not None:
            return self.app.handle(method, path, payload)
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        with self._lock:
            status, content_type, text = self._exchange(method, path, body)
        if content_type.startswith("application/json"):
            return status, json.loads(text)
        return status, text

    def _expect(self, method: str, path: str, payload=None) -> Dict[str, Any]:
        status, document = self.request(method, path, payload)
        if status != 200:
            raise ValueError(f"{method} {path} failed ({status}): {document.get('error')}")
        return document

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document."""
        return self._expect("GET", "/healthz")

    def metrics(self, format: Optional[str] = None) -> Document:  # noqa: A002
        """The registry snapshot (JSON), or text with ``format="prometheus"``."""
        path = "/metrics" if format is None else f"/metrics?format={format}"
        status, document = self.request("GET", path)
        if status != 200:
            error = document.get("error") if isinstance(document, dict) else document
            raise ValueError(f"GET {path} failed ({status}): {error}")
        return document

    def status(self) -> List[Dict[str, Any]]:
        """Uniform component-stats rows."""
        return self._expect("GET", "/status")["components"]

    def process_info(self) -> Dict[str, Any]:
        """The ``/status`` process block (uptime, fingerprint, peak RSS)."""
        return self._expect("GET", "/status")["process"]

    def debug_trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The flight-recorder document (``limit`` keeps the newest)."""
        path = "/debug/trace" if limit is None else f"/debug/trace?limit={limit}"
        return self._expect("GET", path)

    def debug_slow(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The slow-query-log document."""
        path = "/debug/slow" if limit is None else f"/debug/slow?limit={limit}"
        return self._expect("GET", path)

    def graph(self) -> Dict[str, Any]:
        """The knowledge-graph document."""
        return self._expect("GET", "/graph")

    def query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one wire-form query."""
        return self._expect("POST", "/query", payload)["result"]

    def query_batch(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Answer a coalesced batch of wire-form queries."""
        return self._expect("POST", "/query", {"queries": payloads})["results"]


__all__ = ["ServeApp", "ServeClient", "make_server", "status_rows"]
