"""The remote serving application: durable queue + quotas, protocol-agnostic.

:class:`RemoteApp` is everything the HTTP layer does *except* HTTP: it wires
a :class:`~repro.remote.journal.JobJournal` into the pool's
:class:`~repro.serve.JobQueue`, replays the journal on startup (terminal
records and the persisted result store come back; jobs that were in flight
when the previous process died are surfaced as failed, not lost), enforces
per-tenant quotas, triggers journal compaction, and answers
submit/status/result/cancel/events/metrics in plain dicts.  Tests drive it
directly; :class:`repro.remote.server.RemoteServer` puts sockets in front.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator

from repro.api.config import RemoteConfig, ServeConfig
from repro.api.report import JobRecord, JobStatus, RunReport
from repro.errors import AdmissionError, JobCancelled, QuotaExceeded
from repro.remote.admission import TenantQuota
from repro.remote.journal import JOURNAL_FILENAME, JobJournal
from repro.utils.logging import get_logger

_LOG = get_logger("remote.app")

#: Error message attached to replayed records of jobs that never finished.
_LOST_IN_RESTART = "ServerRestart: job was in flight when the server stopped"


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
        #: Terminal records (and their reports) recovered from the journal;
        #: job ids in here ran in a previous server process.
        self._replayed: dict[str, JobRecord] = {}
        self._replayed_reports: dict[str, RunReport] = {}
        #: In-flight jobs the previous process died with, awaiting re-queue:
        #: ``(record, request, checkpoint)`` per job.
        self._lost: list[tuple[JobRecord, dict | None, dict | None]] = []
        self._resumed_jobs = 0
        counter_start = 0
        replayed_store: dict[str, RunReport] = {}
        if self.journal is not None:
            replay = self.journal.replay()
            counter_start = replay.max_job_number
            replayed_store = replay.store
            self._absorb_replayed(
                replay.records, replay.reports,
                requests=replay.requests, checkpoints=replay.checkpoints,
            )

        self.queue = pool.serve(
            self.serve_config, journal=self.journal, counter_start=counter_start,
            faults=faults,
        )
        if self.queue.store is not None:
            for key, report in replayed_store.items():
                self.queue.store.put(key, report)
        self._resume_lost()

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
    # Startup: journal resolution and replay
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

    def _absorb_replayed(
        self,
        records: dict[str, JobRecord],
        reports: dict[str, RunReport],
        *,
        requests: dict[str, dict] | None = None,
        checkpoints: dict[str, dict] | None = None,
    ) -> None:
        """Keep replayed terminal records, applying the queue's GC bounds.

        Non-terminal replayed records belong to jobs that died with the
        previous process.  With ``RemoteConfig.resume_inflight`` (the
        default) they are stashed for :meth:`_resume_lost` to re-queue from
        their last journaled checkpoint; otherwise they are surfaced as
        failed (:data:`_LOST_IN_RESTART`) so clients polling those ids get a
        truthful terminal answer instead of a forever-pending ghost.
        """
        requests = requests or {}
        checkpoints = checkpoints or {}
        now = time.time()
        ttl = self.serve_config.job_ttl_s
        for job_id, record in records.items():
            if not record.status.terminal:
                if self.remote_config.resume_inflight:
                    self._lost.append(
                        (record, requests.get(job_id), checkpoints.get(job_id))
                    )
                    continue
                record = dataclasses.replace(
                    record,
                    status=JobStatus.FAILED,
                    error=_LOST_IN_RESTART,
                    finished_at=record.finished_at or now,
                )
            if (
                ttl is not None
                and record.finished_at is not None
                and now - record.finished_at >= ttl
            ):
                continue  # expired while the server was down
            self._replayed[job_id] = record
            if job_id in reports:
                self._replayed_reports[job_id] = reports[job_id]
        max_records = self.serve_config.max_records
        if max_records is not None and len(self._replayed) > max_records:
            for job_id in list(self._replayed)[: len(self._replayed) - max_records]:
                self._replayed.pop(job_id, None)
                self._replayed_reports.pop(job_id, None)

    def _resume_lost(self) -> None:
        """Re-queue journal-replayed in-flight jobs under their original ids.

        Each lost job re-enters the live queue with its journaled submission
        parameters and last strategy checkpoint (fresh start when none was
        journaled), exempt from admission control — it was admitted and
        quota-charged before the restart.  A job that cannot be re-queued
        (its backend has no worker in this pool, say) falls back to the
        terminal-failed :data:`_LOST_IN_RESTART` record rather than
        vanishing.
        """
        lost, self._lost = self._lost, []
        for record, request, checkpoint in lost:
            request = request or {}
            try:
                self.queue.submit(
                    record.kernel,
                    backend=record.backend,
                    shapes=request.get("shapes"),
                    strategy=request.get("strategy"),
                    verify=request.get("verify"),
                    store=bool(request.get("store", True)),
                    cost=record.cost,
                    use_store=bool(request.get("use_store", True)),
                    tenant=record.tenant,
                    job_id=record.job_id,
                    resume_state=checkpoint,
                    resumed=True,
                    attempt=record.attempt,
                    enforce_admission=False,
                )
            except Exception as exc:  # noqa: BLE001 - never lose the record
                _LOG.warning(
                    "could not resume job %s (%s) after restart: %s; "
                    "marking it failed",
                    record.job_id, record.kernel, exc,
                )
                self._replayed[record.job_id] = dataclasses.replace(
                    record,
                    status=JobStatus.FAILED,
                    error=_LOST_IN_RESTART,
                    finished_at=record.finished_at or time.time(),
                )
            else:
                self._resumed_jobs += 1
                _LOG.info(
                    "resumed job %s (%s) after restart%s",
                    record.job_id, record.kernel,
                    " from checkpoint" if checkpoint else " from scratch",
                )

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
        cost = float(payload.get("cost", 1.0))
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
        try:
            return self.queue.status(job_id)
        except KeyError:
            return self._replayed[job_id]

    def result(
        self, job_id: str, *, timeout: float = 0.0
    ) -> tuple[JobRecord, RunReport | None]:
        """Block up to ``timeout`` for the job's report.

        Returns ``(record, report)``; ``report`` is ``None`` while the job
        is still running (after the timeout), and for cancelled/rejected
        jobs, whose outcome lives in the record itself.
        """
        self._ensure_open()
        try:
            handle = self.queue.handle(job_id)
        except KeyError:
            record = self._replayed[job_id]
            return record, self._replayed_reports.get(job_id)
        try:
            report = handle.result(timeout=max(0.0, timeout))
        except (TimeoutError, JobCancelled, AdmissionError):
            report = None
        return handle.record(), report

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; replayed (already-finished) jobs return False."""
        self._ensure_open()
        try:
            handle = self.queue.handle(job_id)
        except KeyError:
            if job_id in self._replayed:
                return False
            raise
        return handle.cancel()

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's progress events as dicts, completing at the
        terminal event.  Replayed jobs yield one synthesized terminal event
        (their live stream died with the previous process)."""
        self._ensure_open()
        try:
            subscription = self.queue.subscribe(job_id)
        except KeyError:
            record = self._replayed[job_id]
            yield {
                "seq": 0,
                "job_id": job_id,
                "kind": record.status.value,
                "timestamp": record.finished_at,
                "worker": record.worker,
                "measured": record.measured,
                "stolen": record.stolen,
                "detail": record.error or "replayed from journal",
                "rules": list(record.invalidation_rules),
                "replayed": True,
            }
            return
        try:
            for event in subscription:
                yield event.as_dict()
        finally:
            subscription.close()

    def jobs(self) -> list[JobRecord]:
        """Every known record: replayed (oldest) first, then live ones."""
        self._ensure_open()
        return list(self._replayed.values()) + self.queue.jobs()

    def metrics(self) -> dict:
        """The ``/metrics`` payload: queue/pool/store snapshot plus server,
        journal and quota counters."""
        self._ensure_open()
        payload = self.queue.metrics()
        payload["server"] = {
            "uptime_s": time.time() - self.started_at,
            "replayed_records": len(self._replayed),
            "resumed_jobs": self._resumed_jobs,
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
        """Rewrite the journal from live + replayed state; returns its new
        line count (0 when journaling is off)."""
        if self.journal is None:
            return 0
        records: list[tuple[JobRecord, RunReport | None]] = [
            (record, self._replayed_reports.get(job_id))
            for job_id, record in self._replayed.items()
        ]
        records.extend(self.queue.records_with_reports())
        store = [] if self.queue.store is None else self.queue.store.items()
        return self.journal.compact(
            records, store, resume=self.queue.resume_snapshot()
        )

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
