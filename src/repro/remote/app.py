"""The remote serving application: durable queue + quotas, protocol-agnostic.

:class:`RemoteApp` is everything the HTTP layer does *except* HTTP: it wires
a :class:`~repro.remote.journal.JobJournal` into the pool's
:class:`~repro.serve.JobQueue` (which restores the journal's jobs and result
store on startup, re-queueing the jobs that were in flight when the previous
process died), enforces per-tenant quotas, triggers journal compaction, and
answers submit/status/result/cancel/events/metrics in plain dicts.  Tests
drive it directly; :class:`repro.remote.server.RemoteServer` puts sockets in
front.
"""

from __future__ import annotations

import sys
import time
from typing import Iterator

from repro.api.config import RemoteConfig, ServeConfig
from repro.api.report import JobRecord, JobStatus, RunReport
from repro.errors import AdmissionError, JobCancelled, QuotaExceeded
from repro.remote.admission import TenantQuota
from repro.remote.journal import JOURNAL_FILENAME, JobJournal
from repro.utils.logging import get_logger

_LOG = get_logger("remote.app")


class RemoteApp:
    """Durable serving state over one pool, shared by HTTP handler and tests."""

    def __init__(
        self,
        pool,
        *,
        serve: ServeConfig | None = None,
        remote: RemoteConfig | None = None,
        faults=None,
    ):
        self.pool = pool
        self.remote_config = remote or RemoteConfig()
        self.serve_config = serve or ServeConfig()
        self.started_at = time.time()
        #: Optional chaos-testing :class:`repro.faults.FaultPlan`, threaded
        #: into the journal (append failures) and queue (worker crashes,
        #: measurement delays); the HTTP server reads it for stream drops.
        self.faults = faults

        self.journal = self._open_journal()
        self.queue = pool.serve(self.serve_config, journal=self.journal, faults=faults)
        self.quota = (
            TenantQuota(
                self.remote_config.tenant_tokens,
                self.remote_config.tenant_refill_per_s,
            )
            if self.remote_config.tenant_tokens is not None
            else None
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Startup: journal resolution
    # ------------------------------------------------------------------
    def _open_journal(self) -> JobJournal | None:
        config = self.remote_config
        if not config.journal:
            return None
        if config.journal_path is not None:
            return JobJournal(config.journal_path, faults=self.faults)
        if self.pool.cache_dir is None:
            _LOG.warning(
                "journaling disabled: the pool has no cache directory and "
                "RemoteConfig.journal_path was not set"
            )
            return None
        return JobJournal(self.pool.cache_dir / JOURNAL_FILENAME, faults=self.faults)

    # ------------------------------------------------------------------
    # Serving verbs
    # ------------------------------------------------------------------
    def submit(self, payload: dict, *, tenant: str | None = None) -> JobRecord:
        """Admit and queue one submission; returns the fresh job record.

        Raises :class:`ValueError` for malformed payloads, :class:`KeyError`
        for unknown backends or strategies, :class:`QuotaExceeded` /
        :class:`~repro.errors.AdmissionError` for refusals (both carry the
        minted rejected job id).
        """
        self._ensure_open()
        if not isinstance(payload, dict):
            raise ValueError("submission payload must be a JSON object")
        kernel = payload.get("kernel")
        if not kernel or not isinstance(kernel, str):
            raise ValueError("submission payload needs a 'kernel' (workload name)")
        for field in ("backend", "strategy"):
            if payload.get(field) is not None and not isinstance(payload[field], str):
                raise ValueError(f"submission {field!r} must be a name")
        shapes = payload.get("shapes")
        if shapes is not None and not isinstance(shapes, dict):
            raise ValueError("'shapes' must be an object of dimension sizes")
        cost = payload.get("cost", 1.0)
        # Bools are ints to Python; ints past the float range fail the bound.
        if isinstance(cost, bool) or not isinstance(cost, (int, float)) or not (
            0 < cost <= sys.float_info.max
        ):
            raise ValueError(f"'cost' must be a finite number > 0, got {cost!r}")
        cost = float(cost)
        tenant = tenant or self.remote_config.default_tenant

        if self.quota is not None and not self.quota.try_charge(tenant, cost):
            handle = self.queue.reject(
                kernel,
                reason=(
                    f"tenant {tenant!r} is out of quota tokens "
                    f"(capacity {self.quota.capacity:g})"
                ),
                tenant=tenant,
                cost=cost,
            )
            raise QuotaExceeded(
                f"job {handle.job_id} ({kernel}) rejected: tenant {tenant!r} "
                "is out of quota tokens",
                job_id=handle.job_id,
                tenant=tenant,
            )

        handle = self.queue.submit(
            kernel,
            backend=payload.get("backend"),
            shapes=shapes,
            strategy=payload.get("strategy"),
            verify=payload.get("verify"),
            cost=cost,
            use_store=bool(payload.get("use_store", True)),
            tenant=tenant,
        )
        self.maybe_compact()
        return handle.record()

    def submit_many(self, payloads: list, *, tenant: str | None = None) -> list[dict]:
        """Admit a batch; one entry per input, in order.

        Accepted entries are ``{"job_id": ...}``; refused/malformed ones are
        ``{"error": {"code", "message", "job_id"?}}`` — a partial batch is
        not an error, mirroring ``optimize_many``'s per-job failure capture.
        """
        self._ensure_open()
        if not isinstance(payloads, list):
            raise ValueError("batch payload must be a JSON array of submissions")
        results: list[dict] = []
        for payload in payloads:
            try:
                record = self.submit(payload, tenant=tenant)
                results.append({"job_id": record.job_id})
            except AdmissionError as exc:  # includes QuotaExceeded
                results.append(
                    {
                        "error": {
                            "code": exc.reason,
                            "message": str(exc),
                            "job_id": exc.job_id,
                        }
                    }
                )
            except (ValueError, KeyError) as exc:
                results.append(
                    {"error": {"code": "bad-request", "message": str(exc)}}
                )
        return results

    def status(self, job_id: str) -> JobRecord:
        """The current record for ``job_id``, live or journal-replayed."""
        self._ensure_open()
        return self.queue.status(job_id)

    def result(
        self, job_id: str, *, timeout: float = 0.0
    ) -> tuple[JobRecord, RunReport | None]:
        """Block up to ``timeout`` for the job's report.

        Returns ``(record, report)``; ``report`` is ``None`` while the job
        is still running (after the timeout), and for cancelled/rejected
        jobs, whose outcome lives in the record itself.  The report is read
        after the record, so a job that finishes just as the wait times out
        never answers with a finished record and no report.
        """
        self._ensure_open()
        handle = self.queue.handle(job_id)
        try:
            handle.result(timeout=max(0.0, timeout))
        except (TimeoutError, JobCancelled, AdmissionError):
            pass
        record = handle.record()
        reported = record.status in (JobStatus.DONE, JobStatus.FAILED)
        return record, (handle.result(timeout=0) if reported else None)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; finished (and replayed) jobs return False."""
        self._ensure_open()
        return self.queue.handle(job_id).cancel()

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's progress events as dicts, completing at the
        terminal event.  Replayed jobs yield their one terminal event
        (their live stream died with the previous process)."""
        self._ensure_open()
        subscription = self.queue.subscribe(job_id)
        try:
            for event in subscription:
                yield event.as_dict()
        finally:
            subscription.close()

    def jobs(self) -> list[JobRecord]:
        """Every known record: replayed (oldest) first, then live ones."""
        self._ensure_open()
        return self.queue.jobs()

    def metrics(self) -> dict:
        """The ``/metrics`` payload: queue/pool/store snapshot plus server,
        journal and quota counters."""
        self._ensure_open()
        payload = self.queue.metrics()
        payload["server"] = {
            "uptime_s": time.time() - self.started_at,
            "replayed_records": sum(record.replayed for record in self.queue.jobs()),
            "resumed_jobs": payload["queue"]["resumed"],
            "journal": {} if self.journal is None else self.journal.stats(),
        }
        payload["quota"] = {} if self.quota is None else self.quota.snapshot()
        if self.faults is not None:
            payload["faults"] = self.faults.snapshot()
        return payload

    # ------------------------------------------------------------------
    # Journal maintenance / lifecycle
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the journal from the queue's state; returns its new line
        count (0 when journaling is off)."""
        return self.queue.compact()

    def maybe_compact(self) -> None:
        if (
            self.journal is not None
            and self.journal.appends >= self.remote_config.compact_every
        ):
            self.compact()

    def _ensure_open(self) -> None:
        if self._closed:
            raise AdmissionError("remote app is closed", reason="shutting-down")

    def close(self) -> None:
        """Stop serving: final journal compaction, close queue and journal.

        The pool itself stays open — its owner (the CLI, a test fixture)
        closes it; worker sessions survive for a later queue.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.queue.close()
        finally:
            if self.journal is not None:
                try:
                    self._closed = False
                    self.compact()
                finally:
                    self._closed = True
                    self.journal.close()

    def __enter__(self) -> "RemoteApp":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
