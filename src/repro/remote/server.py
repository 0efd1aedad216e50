"""Stdlib HTTP/JSON front door over :class:`~repro.remote.app.RemoteApp`.

No third-party web framework: a :class:`http.server.ThreadingHTTPServer`
(one daemon thread per connection) is plenty for an optimization service
whose unit of work is a multi-second schedule search.  The surface mirrors
the in-process :class:`~repro.serve.JobHandle` API:

==========  =============================  =======================================
Method      Path                           Meaning
==========  =============================  =======================================
GET         ``/healthz``                   liveness probe
GET         ``/metrics``                   live pool/queue/store/quota snapshot
POST        ``/v1/jobs``                   submit one job (202 + record)
POST        ``/v1/jobs/batch``             submit many (200 + per-entry outcome)
GET         ``/v1/jobs``                   list every known job record
GET         ``/v1/jobs/{id}``              job status record
GET         ``/v1/jobs/{id}/result``       record + report (``?timeout=`` blocks)
GET         ``/v1/jobs/{id}/events``       SSE stream of progress events
POST        ``/v1/jobs/{id}/cancel``       request cancellation
==========  =============================  =======================================

Tenancy rides on the ``X-Tenant`` request header.  Errors are structured
JSON ``{"error": {"code", "message", ...}}``: 400 for malformed payloads,
404 for unknown ids/routes, 429 for admission/quota refusals (with the
minted rejected job id), 500 for everything else.

Connections are kept alive (HTTP/1.1), so a client's cheap requests (reads,
status polls, store-hit submits) share one TCP connection and one server
thread instead of paying for a connection each.  Three rules keep that
sound:

- Every JSON response carries a ``Content-Length``, and every request body
  is read whole before routing, so no request leaves unread bytes for the
  next one to be parsed from.  A ``Content-Length`` the server will not read
  (invalid, oversized, or a chunked body) answers 400 and closes the
  connection.
- SSE streams are close-delimited (``Connection: close``): end of stream is
  end of connection, so a dropped stream reads as a clean truncation.
- ``TCP_NODELAY`` is set on every connection.  A response goes out as a
  header write and then a body write; under Nagle's algorithm the body
  would wait for the client's delayed ACK of the header, about 40 ms per
  kept-alive request.

Idle connections are never timed out: a server that closed them would race
the client's next POST, which is never retried.  :meth:`RemoteServer.close`
ends every open connection instead.

A ``/result`` long-poll waits in slices of :data:`_POLL_SLICE_S`.  Between
slices it checks that its client is still connected and the server still
open, so an abandoned poll frees its thread within one slice, and so does
every poll when the server closes.  A ``timeout`` that is not a finite
number answers 400.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import AdmissionError
from repro.remote.app import RemoteApp
from repro.remote.client import socket_readable
from repro.utils.logging import get_logger
from repro.utils.serialization import to_json_str

_LOG = get_logger("remote.server")

_MAX_BODY = 8 * 1024 * 1024  # refuse absurd request bodies outright

#: Longest single wait of a ``/result`` long-poll, in seconds.
_POLL_SLICE_S = 0.25


class _Handler(BaseHTTPRequestHandler):
    """Routes one request to the shared :class:`RemoteApp`."""

    protocol_version = "HTTP/1.1"  # keep-alive; see the module docstring
    disable_nagle_algorithm = True  # TCP_NODELAY: no delayed-ACK stall per response
    server_version = "repro-remote"

    @property
    def app(self) -> RemoteApp:
        return self.server.app  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _tenant(self) -> str | None:
        return self.headers.get("X-Tenant") or None

    def _send_json(self, status: int, payload: dict) -> None:
        body = to_json_str(payload).encode("utf8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # the connection ends after this response
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str, **extra) -> None:
        self._send_json(status, {"error": {"code": code, "message": message, **extra}})

    def _consume_body(self) -> bytes:
        """Read the whole request body off the connection.

        Runs before routing, so a kept-alive connection holds no unread bytes
        when the next request is parsed, whatever the route does.  Raises
        :class:`ValueError` for a body the server will not read; the caller
        then closes the connection, since the next request's start is lost.
        """
        if self.headers.get("Transfer-Encoding"):
            raise ValueError("chunked request bodies are not supported")
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ValueError(f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        return self.rfile.read(length) if length else b""

    def _json_body(self):
        if not self._body:
            raise ValueError("request body must be JSON")
        try:
            return json.loads(self._body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None

    def _dispatch(self, method: str) -> None:
        try:
            self._answer(method)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away, or close() ended the connection,
            # mid-response: nothing to answer and nothing more to read.
            self.close_connection = True

    def _answer(self, method: str) -> None:
        try:
            self._body = self._consume_body()
        except ValueError as exc:
            self.close_connection = True
            self._send_error_json(400, "bad-request", str(exc))
            return
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        try:
            self._route(method, parts, query)
        except (BrokenPipeError, ConnectionResetError):
            raise  # not an error to answer; see _dispatch
        except AdmissionError as exc:
            self._send_error_json(
                429, exc.reason, str(exc), job_id=exc.job_id, tenant=exc.tenant
            )
        except ValueError as exc:
            self._send_error_json(400, "bad-request", str(exc))
        except KeyError as exc:
            self._send_error_json(404, "not-found", f"unknown job or route: {exc}")
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            _LOG.exception("unhandled error serving %s %s", method, self.path)
            self._send_error_json(500, "internal", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _route(self, method: str, parts: list[str], query: dict) -> None:
        app = self.app
        if method == "GET" and parts == ["healthz"]:
            self._send_json(200, {"ok": True})
        elif method == "GET" and parts == ["metrics"]:
            self._send_json(200, app.metrics())
        elif parts[:1] == ["v1"] and parts[1:2] == ["jobs"]:
            self._route_jobs(method, parts[2:], query)
        else:
            raise KeyError("/" + "/".join(parts))

    def _route_jobs(self, method: str, rest: list[str], query: dict) -> None:
        app = self.app
        if not rest:
            if method == "POST":
                record = app.submit(self._json_body(), tenant=self._tenant())
                self._send_json(202, {"job": record.as_dict()})
            else:
                self._send_json(
                    200, {"jobs": [record.as_dict() for record in app.jobs()]}
                )
            return
        if rest == ["batch"] and method == "POST":
            results = app.submit_many(self._json_body(), tenant=self._tenant())
            self._send_json(200, {"jobs": results})
            return
        job_id, action = rest[0], rest[1:]
        if not action and method == "GET":
            self._send_json(200, {"job": app.status(job_id).as_dict()})
        elif action == ["result"] and method == "GET":
            timeout = float(query.get("timeout", ["0"])[0])
            if not math.isfinite(timeout):
                raise ValueError(f"'timeout' must be a finite number, got {timeout!r}")
            timeout = min(timeout, app.remote_config.result_timeout_s)
            record, report = self._long_poll(job_id, timeout)
            self._send_json(
                200,
                {
                    "job": record.as_dict(),
                    "report": None if report is None else report.summary(),
                },
            )
        elif action == ["events"] and method == "GET":
            self._stream_events(job_id)
        elif action == ["cancel"] and method == "POST":
            cancelled = app.cancel(job_id)
            self._send_json(
                200, {"job": app.status(job_id).as_dict(), "cancelled": cancelled}
            )
        else:
            raise KeyError("/".join(["v1", "jobs", *rest]))

    def _long_poll(self, job_id: str, timeout: float):
        """``app.result`` in slices of :data:`_POLL_SLICE_S`, up to ``timeout``.

        A poll whose client has gone, or whose server is closing, answers
        after the current slice and ends its connection.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            record, report = self.app.result(job_id, timeout=min(remaining, _POLL_SLICE_S))
            if record.status.terminal or remaining <= _POLL_SLICE_S:
                return record, report
            if self.server.closing or self._client_gone():  # type: ignore[attr-defined]
                self.close_connection = True
                return record, report

    def _client_gone(self) -> bool:
        """Whether the client's end of the connection reads as closed."""
        try:
            return socket_readable(self.connection) and not self.connection.recv(
                1, socket.MSG_PEEK
            )
        except OSError:
            return True

    def _stream_events(self, job_id: str) -> None:
        """SSE stream: one ``data:`` line per event, EOF after the terminal
        event (close-delimited, so end-of-stream is end-of-connection)."""
        events = self.app.events(job_id)  # raises KeyError before headers go out
        first = next(events, None)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        faults = self.app.faults
        written = 0
        try:
            for event in ([first] if first is not None else []):
                self._write_event(event)
                written += 1
            for event in events:
                if faults is not None and faults.on_event_write(
                    job_id=job_id, index=written
                ):
                    # Planned mid-stream connection drop: close the socket
                    # abruptly so the client sees a truncated stream.
                    self.connection.close()
                    return
                self._write_event(event)
                written += 1
        finally:
            close = getattr(events, "close", None)
            if close is not None:
                close()

    def _write_event(self, event: dict) -> None:
        self.wfile.write(f"data: {to_json_str(event)}\n\n".encode("utf8"))
        self.wfile.flush()


class _HTTPServer(ThreadingHTTPServer):
    """Threading server that tracks its open connections.

    Each connection is registered on the accept loop, before its handler
    thread starts, under the same lock as the closing flag: a connection is
    either registered before :meth:`end_connections` looks, or refused.
    """

    def __init__(self, address, app: RemoteApp):
        super().__init__(address, _Handler)
        self.app = app
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        #: Set once :meth:`end_connections` ran; long-polls answer early.
        self.closing = False

    def verify_request(self, request, client_address) -> bool:
        with self._lock:
            if self.closing:
                return False
            self._connections.add(request)
            return True

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Refuse new connections and end every open one.  A handler blocked
        on an idle connection reads EOF and exits; the client sees the
        connection closed and reopens (to a refused port, once closed)."""
        with self._lock:  # held, so no handler closes a socket meanwhile
            self.closing = True
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer is already gone


class RemoteServer:
    """Owns the listening socket, its serving thread and open connections.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`) —
    the test-friendly default.  The server does not own the app or the
    pool; close order is server → app → pool.
    """

    def __init__(self, app: RemoteApp, *, host: str | None = None, port: int | None = None):
        self.app = app
        host = host if host is not None else app.remote_config.host
        port = port if port is not None else app.remote_config.port
        self._httpd = _HTTPServer((host, port), app)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RemoteServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="remote-http",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("remote server listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); blocks until
        :meth:`close` or ``KeyboardInterrupt``."""
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        """Stop accepting, end every open connection, release the port.

        Kept-alive connections would otherwise outlive the server and keep
        answering from an app that is closed next.
        """
        self._httpd.end_connections()
        if self._thread is not None:
            # shutdown() must only run against an active serve_forever loop
            # (it blocks until the loop acknowledges); the CLI path exits
            # its foreground loop before calling close().
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "RemoteServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
