"""Thin stdlib client for the remote serving HTTP API.

:class:`RemoteClient` speaks the :mod:`repro.remote.server` protocol over
kept-alive ``http.client`` connections, one per calling thread, and hands
back :class:`RemoteJobHandle` objects that mirror the in-process
:class:`~repro.serve.JobHandle` surface (``status`` / ``result`` /
``cancel`` / ``events``), so call sites can swap between local and remote
serving without restructuring.  Server-side refusals come back as the same
exception types the local queue raises:
:class:`~repro.errors.QuotaExceeded` / :class:`~repro.errors.AdmissionError`
for 429, :class:`~repro.errors.JobCancelled` from ``result()`` of a
cancelled job, :class:`ValueError`/:class:`KeyError` for 400/404 and
:class:`~repro.errors.RemoteError` for transport or server faults.
"""

from __future__ import annotations

import http.client
import io
import json
import select
import threading
import time
from typing import Iterator
from urllib.parse import quote, urlencode, urlsplit

from repro.api.report import JobRecord, JobStatus, RunReport
from repro.errors import AdmissionError, JobCancelled, QuotaExceeded, RemoteError


def _raise_for_error(status: int, payload: dict) -> None:
    """Map a structured error payload back to the local exception types."""
    error = payload.get("error") or {}
    code = error.get("code", "unknown")
    message = error.get("message", f"HTTP {status}")
    if status == 429:
        if code == "tenant-quota":
            raise QuotaExceeded(
                message, job_id=error.get("job_id"), tenant=error.get("tenant")
            )
        raise AdmissionError(
            message,
            reason=code,
            job_id=error.get("job_id"),
            tenant=error.get("tenant"),
        )
    if status == 400:
        raise ValueError(message)
    if status == 404:
        raise KeyError(message)
    raise RemoteError(message, status=status, payload=payload)


def socket_readable(sock) -> bool:
    """Whether ``sock`` holds bytes or EOF to read now, without blocking.

    ``poll``, not ``select``: it takes descriptors past ``FD_SETSIZE``.
    The server's long-poll uses it too, to tell that its client left.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _closed_by_server(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle kept-alive connection can no longer be used.

    Between requests the server has nothing to say, so a socket that polls
    readable holds either EOF (the server closed it: restart, shutdown) or
    bytes nobody asked for; both mean reopen.
    """
    return connection.sock is not None and socket_readable(connection.sock)


class RemoteJobHandle:
    """Client-side view of one remote job, mirroring ``JobHandle``."""

    def __init__(self, client: "RemoteClient", job_id: str):
        self._client = client
        self.job_id = job_id

    @property
    def status(self) -> JobStatus:
        return self.record().status

    def record(self) -> JobRecord:
        return self._client.status(self.job_id)

    def done(self) -> bool:
        return self.record().status.terminal

    def result(self, timeout: float | None = None) -> RunReport:
        return self._client.result(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        return self._client.cancel(self.job_id)

    def events(self) -> Iterator[dict]:
        return self._client.events(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteJobHandle({self.job_id!r} @ {self._client.base_url})"


class RemoteClient:
    """HTTP client for one remote serving endpoint.

    ``tenant`` (sent as ``X-Tenant``) scopes submissions under the server's
    per-tenant quota; ``None`` means the server's default tenant.

    Each thread that calls the client gets its own persistent HTTP/1.1
    connection, so threads sharing one client never interleave on a socket
    and a thread's requests cost no connection setup after the first.  A
    connection the server closed while it sat idle is noticed before the
    next request and reopened; a failure during a request closes it, and the
    thread's next request opens a fresh one.  :meth:`close` (or leaving a
    ``with`` block) closes every thread's connection; a connection whose
    thread ended is closed when another thread opens its first one.  Proxy
    environment variables (``http_proxy``) are not consulted.

    Idempotent GETs transparently retry transient transport failures
    (connection refused/reset, a dropped response) up to ``retry_attempts``
    times with exponential backoff from ``retry_backoff_s``.  POSTs are
    **never** auto-retried: submit and cancel are not idempotent — a retried
    submit whose first attempt actually landed server-side would duplicate
    the job and double-charge the tenant's quota, so transport failures on
    POST surface to the caller, who can consult ``jobs()`` before retrying.
    """

    def __init__(
        self,
        base_url: str,
        *,
        tenant: str | None = None,
        request_timeout_s: float = 30.0,
        retry_attempts: int = 3,
        retry_backoff_s: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"expected an http://host[:port] URL, got {base_url!r}")
        self._host, self._port, self._prefix = split.hostname, split.port, split.path
        self.tenant = tenant
        self.request_timeout_s = request_timeout_s
        self.retry_attempts = max(1, int(retry_attempts))
        self.retry_backoff_s = retry_backoff_s
        self._local = threading.local()  # .connection: this thread's HTTPConnection
        self._lock = threading.Lock()
        #: Every thread's connection with the thread that owns it, for
        #: :meth:`close`.  Held strongly, so an ended thread's connection is
        #: never left to the garbage collector with its socket open.
        self._connections: list[tuple[threading.Thread, http.client.HTTPConnection]] = []

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """The calling thread's connection, ready for its next request."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self._host, self._port)
            self._local.connection = connection
            with self._lock:
                owned, self._connections = self._connections, [
                    (threading.current_thread(), connection)
                ]
                for thread, other in owned:
                    if thread.is_alive():
                        self._connections.append((thread, other))
                    else:
                        other.close()  # its thread ended
        elif _closed_by_server(connection):
            connection.close()  # the next request reconnects
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        return connection

    def _open(self, method: str, path: str, body=None, query: dict | None = None, *, timeout: float | None = None):
        """Send one request on this thread's connection; return its body.

        A response that keeps the connection alive is read whole here and
        returned as a file, so no half-read response is ever left on the
        connection.  A close-delimited one (an SSE stream) owns its socket
        and is returned unread.  Any failure during the exchange closes the
        connection.  An ``OSError`` while connecting or sending raises
        :class:`RemoteError` with ``status == 0``; HTTP >= 400 raises through
        :func:`_raise_for_error`.
        """
        target = self._prefix + path
        if query:
            target += "?" + urlencode(query)
        data = None
        headers = {"Accept": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        if body is not None:
            data = json.dumps(body).encode("utf8")
            headers["Content-Type"] = "application/json"
        connection = self._connection(timeout or self.request_timeout_s)
        try:
            try:
                connection.request(method, target, data, headers)
            except OSError as exc:
                raise RemoteError(f"cannot reach {self.base_url}{path}: {exc}") from None
            response = connection.getresponse()
            if response.will_close and response.status < 400:
                return response  # close-delimited: the socket is the response's
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.status >= 400:
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = {"error": {"code": "opaque", "message": raw.decode("utf8", "replace")}}
            _raise_for_error(response.status, payload)
        return io.BytesIO(raw)

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one.

        Call it when no request is in flight.
        """
        with self._lock:
            connections = [connection for _, connection in self._connections]
        for connection in connections:
            connection.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @staticmethod
    def _transient(exc: Exception) -> bool:
        """Transport-level failures worth retrying on an idempotent request.

        ``RemoteError`` with ``status == 0`` means no HTTP response was
        received (connection refused, reset or timed out while sending).
        Structured HTTP errors (4xx/5xx) are never transient: the server
        answered.
        """
        if isinstance(exc, RemoteError):
            return exc.status == 0
        return isinstance(exc, (ConnectionError, http.client.HTTPException))

    def _request(self, method: str, path: str, body=None, query: dict | None = None, *, timeout: float | None = None) -> dict:
        # Only GETs retry; see the class docstring for why POSTs must not.
        attempts = self.retry_attempts if method == "GET" else 1
        delay = self.retry_backoff_s
        for attempt in range(attempts):
            try:
                with self._open(method, path, body, query, timeout=timeout) as response:
                    return json.loads(response.read())
            except (RemoteError, ConnectionError, http.client.HTTPException) as exc:
                if attempt + 1 >= attempts or not self._transient(exc):
                    raise
                time.sleep(delay)
                delay *= 2

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """True when ``/healthz`` answers ok; False on any transport failure
        (refused, reset, timed out, closed without an answer)."""
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (RemoteError, OSError, http.client.HTTPException):
            return False

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit(
        self,
        kernel: str,
        *,
        backend: str | None = None,
        shapes: dict | None = None,
        strategy: str | None = None,
        verify: str | bool | None = None,
        cost: float = 1.0,
        use_store: bool = True,
    ) -> RemoteJobHandle:
        payload = {
            "kernel": kernel,
            "backend": backend,
            "shapes": shapes,
            "strategy": strategy,
            "verify": verify,
            "cost": cost,
            "use_store": use_store,
        }
        payload = {key: value for key, value in payload.items() if value is not None}
        response = self._request("POST", "/v1/jobs", payload)
        return RemoteJobHandle(self, response["job"]["job_id"])

    def submit_many(self, payloads: list[dict]) -> list[dict]:
        """Batch submit; returns per-entry ``{"job_id"}`` or ``{"error"}``."""
        return self._request("POST", "/v1/jobs/batch", payloads)["jobs"]

    def jobs(self) -> list[JobRecord]:
        response = self._request("GET", "/v1/jobs")
        return [JobRecord.from_dict(entry) for entry in response["jobs"]]

    def status(self, job_id: str) -> JobRecord:
        response = self._request("GET", f"/v1/jobs/{quote(job_id)}")
        return JobRecord.from_dict(response["job"])

    def result(self, job_id: str, *, timeout: float | None = None) -> RunReport:
        """Block for the finished report, long-polling in bounded slices.

        Mirrors ``JobHandle.result``: raises :class:`TimeoutError` when
        ``timeout`` elapses, :class:`~repro.errors.JobCancelled` /
        :class:`~repro.errors.AdmissionError` for cancelled/rejected jobs,
        and returns the (possibly failed) report otherwise.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            slice_s = 10.0 if remaining is None else min(10.0, remaining)
            response = self._request(
                "GET",
                f"/v1/jobs/{quote(job_id)}/result",
                query={"timeout": f"{slice_s:.3f}"},
                timeout=self.request_timeout_s + slice_s,
            )
            record = JobRecord.from_dict(response["job"])
            if record.status is JobStatus.CANCELLED:
                raise JobCancelled(f"job {job_id} was cancelled")
            if record.status is JobStatus.REJECTED:
                raise AdmissionError(
                    f"job {job_id} was rejected: {record.error or 'admission control'}",
                    job_id=job_id,
                    tenant=record.tenant,
                )
            if record.status.terminal:
                if response.get("report") is None:
                    raise RemoteError(
                        f"job {job_id} finished without a report "
                        f"({record.error or record.status.value})",
                        payload=response,
                    )
                return RunReport.from_summary(response["report"])
            if remaining is not None and remaining <= 0.0:
                raise TimeoutError(f"job {job_id} did not finish within {timeout}s")

    def cancel(self, job_id: str) -> bool:
        response = self._request("POST", f"/v1/jobs/{quote(job_id)}/cancel", body={})
        return bool(response.get("cancelled"))

    def events(self, job_id: str, *, idle_timeout_s: float = 600.0) -> Iterator[dict]:
        """Stream the job's SSE events as dicts until the terminal event.

        ``idle_timeout_s`` bounds the silence between two events (socket
        read timeout), not the total stream duration.  The server closes a
        stream's connection when the stream ends, so the calling thread's
        next request opens a new one.
        """
        response = self._open(
            "GET", f"/v1/jobs/{quote(job_id)}/events", timeout=idle_timeout_s
        )
        try:
            for raw in response:
                line = raw.decode("utf8").strip()
                if line.startswith("data:"):
                    yield json.loads(line[len("data:") :])
        finally:
            response.close()
