"""The serving front door: an async job queue over a :class:`SessionPool`.

``submit()`` returns a :class:`JobHandle` immediately and appends the job to
one pending deque.  One thread per pool worker takes the **oldest pending
job it may run** (its pin, if any, names this worker; its backend, if any,
is this worker's), so an idle worker never waits while a compatible job is
queued and a skewed batch never strands light jobs behind one long one.

Callers interleave optimization with deployment instead of blocking on the
whole batch::

    with SessionPool(["A100-sim", "A100-sim"]) as pool:
        queue = pool.serve()
        handles = queue.submit_many(["bmm", "softmax", "rmsnorm"])
        for event in queue.subscribe():          # pool-wide progress stream
            print(event.kind, event.job_id)
        report = handles[0].result(timeout=60)   # or .cancel(), .done()

Four more serving behaviors ride on the queue:

* **cancellation** — ``handle.cancel()`` pulls a queued job back instantly;
  a running job is stopped cooperatively at the next measurement-service
  checkpoint, i.e. within one candidate batch;
* **retry** — a job that hits an infrastructure failure goes back into the
  pending deque at once, and no worker takes it before its backoff
  (``ServeConfig.retry``) has passed: an idle worker waits at most until
  the earliest such job is ready.  Meanwhile it counts as pending, and a
  cancel pulls it back like any queued job;
* **progress events** — every job streams
  ``queued → assigned → running → measured(n) → done/failed/cancelled``
  (see :mod:`repro.serve.events`), subscribable per-job and pool-wide;
  ``assigned`` fires when a worker takes the job;
* **result store** — finished reports are kept per §4.2 cache key for the
  pool's lifetime, so a re-submitted ``(workload, backend)`` pair resolves
  instantly without re-optimizing (see :mod:`repro.serve.store`).

:meth:`repro.pool.SessionPool.optimize_many` is a thin synchronous wrapper
over this queue: it pins job *i* to worker *i* mod *N* and waits for every
handle, so its assignment stays deterministic over the one execution path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Iterable

from repro.analysis.verify import verify_schedule
from repro.api.backends import backend_spec
from repro.api.config import ServeConfig
from repro.api.report import JobRecord, JobStatus, RunReport
from repro.api.session import SessionHooks, normalize_verify_mode
from repro.api.strategies import get_strategy
from repro.errors import (
    AdmissionError,
    JobCancelled,
    OptimizationError,
    is_infrastructure_failure,
)
from repro.serve.events import EventBus, EventSubscription, ProgressEvent
from repro.serve.store import ResultStore
from repro.triton.spec import KernelSpec
from repro.utils.logging import get_logger

_LOG = get_logger("serve.queue")

#: Error of a journaled in-flight job that a restarted queue cannot re-queue.
_LOST_IN_RESTART = "ServerRestart: job was in flight when the server stopped"

#: A job's observable state: the fields of :class:`JobRecord`.
_RECORD_FIELDS = tuple(field.name for field in fields(JobRecord))


@dataclass(slots=True, eq=False)
class _Job:
    """Mutable queue-internal job state; callers see it through JobHandle.

    The first fields repeat :class:`JobRecord`'s, under the same names (a
    mutable dataclass cannot derive from a frozen one), so a new record
    field is added here too.  :meth:`record` and the journal restore copy
    them by :data:`_RECORD_FIELDS`.  The rest only the queue reads.
    """

    job_id: str
    kernel: str
    backend: str | None
    status: JobStatus = JobStatus.QUEUED
    worker: str | None = None
    cost: float = 1.0
    from_store: bool = False
    measured: int = 0
    submitted_at: float | None = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    cache_key: str | None = None
    tenant: str | None = None
    invalidation_rules: tuple = ()
    replayed: bool = False
    attempt: int = 0
    resumed: bool = False
    #: What the submission asked for (see :meth:`request`).
    spec: str | KernelSpec = ""
    shapes: dict | None = None
    strategy: str | None = None
    verify: str | None = None
    store: bool = True
    use_store: bool = True
    #: Worker index the job is pinned to, if any.
    pin: int | None = None
    worker_index: int | None = None
    #: ``time.monotonic()`` before which a retried job waits out its backoff.
    ready_at: float = 0.0
    report: RunReport | None = None
    #: Latest strategy checkpoint exported through SessionHooks.save_state;
    #: retried and restart-resumed runs hand it back as resume_state.
    checkpoint_state: dict | None = None
    last_progress_emit: int = 0
    events: list[ProgressEvent] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: threading.Event = field(default_factory=threading.Event)

    def request(self) -> dict:
        """JSON-able submission parameters, journaled so a restarted server
        can re-queue the job faithfully."""
        return {
            "shapes": dict(self.shapes) if self.shapes is not None else None,
            "strategy": self.strategy,
            "verify": self.verify,
            "store": bool(self.store),
            "use_store": bool(self.use_store),
        }

    def record(self) -> JobRecord:
        return JobRecord(**{name: getattr(self, name) for name in _RECORD_FIELDS})


class JobHandle:
    """Caller-side view of one submitted job: poll, wait, cancel, observe."""

    def __init__(self, queue: "JobQueue", job: _Job):
        self._queue = queue
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def status(self) -> JobStatus:
        return self._job.status

    def done(self) -> bool:
        """Whether the job reached a terminal state (done/failed/cancelled)."""
        return self._job.done_event.is_set()

    def cancel(self) -> bool:
        """Request cancellation; ``False`` if the job already finished.

        A queued job (a retry waiting out its backoff too) is pulled back
        immediately; a running one stops at its next measurement-service
        checkpoint (within one candidate batch).
        """
        return self._queue._cancel(self._job)

    def result(self, timeout: float | None = None) -> RunReport:
        """Block for the job's :class:`RunReport` (failed jobs return a
        failed report, matching ``optimize_many`` semantics).

        Raises :class:`TimeoutError` when ``timeout`` elapses first and
        :class:`repro.errors.JobCancelled` for cancelled jobs.
        """
        if not self._job.done_event.wait(timeout):
            raise TimeoutError(f"job {self.job_id} did not finish within {timeout}s")
        if self._job.status is JobStatus.CANCELLED:
            raise JobCancelled(f"job {self.job_id} ({self._job.kernel}) was cancelled")
        if self._job.status is JobStatus.REJECTED:
            raise AdmissionError(
                f"job {self.job_id} ({self._job.kernel}) was rejected: "
                f"{self._job.error or 'admission control'}",
                job_id=self.job_id,
                tenant=self._job.tenant,
            )
        return self._job.report

    def record(self) -> JobRecord:
        """Point-in-time :class:`~repro.api.report.JobRecord` snapshot."""
        with self._queue._work:
            return self._job.record()

    def events(self) -> list[ProgressEvent]:
        """Snapshot of every progress event emitted for this job so far."""
        with self._queue._work:
            return list(self._job.events)

    def subscribe(self) -> EventSubscription:
        """Live event feed for this job; past events are replayed first."""
        return self._queue.subscribe(self.job_id)

    @property
    def from_store(self) -> bool:
        return self._job.from_store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobHandle({self.job_id!r}, {self._job.kernel!r}, {self.status.value})"


class JobQueue:
    """Async job-queue front door over a :class:`repro.pool.SessionPool`.

    The queue does not own the pool (``SessionPool.close`` tears down its
    queue, not the other way around); closing the queue stops its threads
    and cancels still-pending jobs but leaves the worker sessions usable.

    A queue built with a ``journal`` (:class:`repro.remote.JobJournal`)
    appends every submission, checkpoint, terminal record and store entry to
    it, and first restores the state the journal holds (see
    :meth:`_restore`), so one job table serves a restarted server's old and
    new jobs alike.  Journal failures are logged, never fatal to serving.
    """

    def __init__(
        self,
        pool,
        *,
        serve: ServeConfig | None = None,
        journal=None,
        faults=None,
    ):
        if pool.closed:
            raise OptimizationError("cannot serve from a closed session pool")
        self.pool = pool
        self.serve_config = serve or ServeConfig()
        #: Optional :class:`repro.faults.FaultPlan` consulted at the
        #: measurement checkpoint of every running job (chaos testing).
        self.faults = faults
        self.store = ResultStore(self.serve_config.store_max_entries)
        self.journal = journal
        self._bus = EventBus()
        self._work = threading.Condition(threading.Lock())
        #: Jobs waiting for a worker, oldest first; a retried job waits out
        #: its backoff here too (see ``_Job.ready_at``).
        self._pending: "deque[_Job]" = deque()
        self._jobs: dict[str, _Job] = {}
        self._counter = 0
        self._closed = False
        self._joined = False
        self._stats = {
            "submitted": 0, "done": 0, "failed": 0, "cancelled": 0,
            "rejected": 0, "store_hits": 0, "expired": 0,
            "retries": 0, "worker_failures": 0, "resumed": 0,
        }
        if journal is not None:
            self._restore(journal.replay())
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(worker,),
                name=f"serve-{worker.name}", daemon=True,
            )
            for worker in pool.workers
        ]
        for thread in self._threads:
            thread.start()
        _LOG.info(
            "serve queue up: %d workers, %d record(s) restored",
            len(pool.workers), len(self._jobs),
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: str | KernelSpec,
        *,
        backend: str | None = None,
        shapes: dict | None = None,
        strategy: str | None = None,
        verify: str | bool | None = None,
        store: bool = True,
        cost: float = 1.0,
        use_store: bool = True,
        pin_worker: int | None = None,
        tenant: str | None = None,
    ) -> JobHandle:
        """Queue one workload and return its handle immediately.

        ``backend`` restricts the job to workers of that GPU target;
        ``pin_worker`` (used by the ``optimize_many`` wrapper) restricts it
        to one worker index.  ``use_store=False`` forces a fresh
        optimization even when the result store already holds this key.
        ``cost`` and ``tenant`` are recorded for accounting (the remote front
        door charges ``cost`` quota tokens to ``tenant`` before submitting).
        An unknown ``backend`` or ``strategy`` raises ``KeyError``, and an
        unknown ``verify`` mode, an out-of-range ``pin_worker`` or one whose
        worker does not target ``backend`` ``ValueError``, before any job is
        minted.

        With ``ServeConfig.max_pending`` set, a submission arriving while
        that many jobs are already waiting is refused: the job is minted
        terminal-``rejected`` (so its record and ``rejected`` event are
        observable) and :class:`repro.errors.AdmissionError` is raised.
        """
        backend, strategy, verify = self._resolve(backend, strategy, verify)
        if pin_worker is not None:
            if not 0 <= pin_worker < len(self.pool.workers):
                raise ValueError(f"pin_worker {pin_worker} out of range")
            if backend is not None and self.pool.workers[pin_worker].backend != backend:
                raise ValueError(
                    f"pin_worker {pin_worker} ({self.pool.workers[pin_worker].name}) "
                    f"does not target backend {backend!r}"
                )
        self.gc()  # opportunistic TTL/bound sweep of terminal records
        name = spec if isinstance(spec, str) else spec.name
        max_pending = self.serve_config.max_pending
        with self._work:
            if self._closed:
                raise OptimizationError("job queue is closed")
            pending = len(self._pending)
            if max_pending is not None and pending >= max_pending:
                job = self._mint_rejected_locked(
                    spec, name, cost=float(cost), backend=backend, tenant=tenant,
                    reason=f"pending queue full ({pending} waiting >= {max_pending})",
                )
                raise AdmissionError(
                    f"job {job.job_id} ({name}) rejected: {job.error}",
                    reason="pending-queue-full",
                    job_id=job.job_id,
                    tenant=tenant,
                )
            self._counter += 1
            job = _Job(
                job_id=f"j{self._counter:05d}", kernel=name, backend=backend,
                cost=float(cost), tenant=tenant, spec=spec, shapes=shapes,
                strategy=strategy, verify=verify, store=store,
                use_store=use_store, pin=pin_worker,
            )
            self._enqueue_locked(job)
        return JobHandle(self, job)

    def _resolve(self, backend, strategy, verify) -> tuple:
        """Canonical ``(backend, strategy, verify)`` of a submission.

        Raises ``KeyError`` for a backend no pool worker targets or an
        unknown strategy, and ``ValueError`` for an unknown verify mode.
        """
        if backend is not None:
            backend = backend_spec(backend).name
            if not any(worker.backend == backend for worker in self.pool.workers):
                raise KeyError(
                    f"no pool worker targets backend {backend!r}; "
                    f"workers: {[worker.name for worker in self.pool.workers]}"
                )
        if strategy is not None:
            strategy = get_strategy(strategy).name
        if verify is not None:
            verify = normalize_verify_mode(verify)
        return backend, strategy, verify

    def _enqueue_locked(self, job: _Job) -> None:
        self._jobs[job.job_id] = job
        self._stats["submitted"] += 1
        if job.resumed:
            self._stats["resumed"] += 1
        self._pending.append(job)
        self._emit(job, "queued", detail="resumed from journal" if job.resumed else "")
        self._journal("submitted", job.record(), request=job.request())
        self._work.notify_all()

    def _restore(self, replay) -> None:
        """Rebuild the job table and result store from a journal replay.

        Terminal records come back as finished ``replayed`` jobs with their
        journaled report and one terminal event.  In-flight records are
        re-queued under their own ids with their journaled request,
        checkpoint and attempt count, marked ``resumed`` and exempt from
        ``max_pending`` (they were admitted before the restart); one that no
        worker or strategy here can take fails with
        :data:`_LOST_IN_RESTART`.  New ids mint above the highest replayed
        one, and :meth:`gc` bounds replayed and live records together.
        """
        for key, report in replay.store.items():
            self.store.put(key, report)
        with self._work:
            self._counter = replay.max_job_number
            for job_id, record in replay.records.items():
                if not record.status.terminal:
                    request = replay.requests.get(job_id, {})
                    try:
                        backend, strategy, verify = self._resolve(
                            record.backend, request.get("strategy"), request.get("verify")
                        )
                    except (KeyError, ValueError) as exc:
                        _LOG.warning("cannot resume job %s (%s): %s", job_id, record.kernel, exc)
                    else:
                        self._enqueue_locked(_Job(
                            job_id=job_id, kernel=record.kernel, backend=backend,
                            cost=record.cost, tenant=record.tenant,
                            attempt=record.attempt, resumed=True, spec=record.kernel,
                            shapes=request.get("shapes"), strategy=strategy,
                            verify=verify, store=request.get("store", True),
                            use_store=request.get("use_store", True),
                            checkpoint_state=replay.checkpoints.get(job_id),
                        ))
                        continue
                # A finished job, or a lost one that fails now: as journaled.
                job = _Job(
                    **{name: getattr(record, name) for name in _RECORD_FIELDS},
                    spec=record.kernel,
                )
                self._jobs[job_id] = job
                if record.status.terminal:
                    job.report = replay.reports.get(job_id)
                    job.events.append(
                        ProgressEvent(
                            seq=0, job_id=job_id, kind=job.status.value,
                            timestamp=job.finished_at, worker=job.worker,
                            measured=job.measured,
                            detail=job.error or "replayed from journal",
                            rules=job.invalidation_rules, attempt=job.attempt,
                            replayed=True,
                        )
                    )
                    job.done_event.set()
                else:
                    job.error = _LOST_IN_RESTART
                    self._finalize_locked(job, JobStatus.FAILED, detail=_LOST_IN_RESTART)
        self.gc()

    def reject(
        self,
        spec: str | KernelSpec,
        *,
        reason: str,
        backend: str | None = None,
        cost: float = 1.0,
        tenant: str | None = None,
    ) -> JobHandle:
        """Mint a terminal-``rejected`` job without queueing anything.

        Front doors use this to make quota/overload refusals observable with
        the same machinery as every other outcome: the job gets an id, a
        record, a ``rejected`` event on the bus and a journal entry.
        """
        name = spec if isinstance(spec, str) else spec.name
        with self._work:
            if self._closed:
                raise OptimizationError("job queue is closed")
            job = self._mint_rejected_locked(
                spec, name, cost=float(cost), backend=backend, tenant=tenant,
                reason=reason,
            )
        return JobHandle(self, job)

    def _mint_rejected_locked(
        self, spec, name: str, *, cost: float, backend, tenant, reason: str
    ) -> _Job:
        self._counter += 1
        job = _Job(
            job_id=f"j{self._counter:05d}", kernel=name, backend=backend,
            cost=cost, error=reason, tenant=tenant, spec=spec, store=False,
            use_store=False,
        )
        self._jobs[job.job_id] = job
        self._finalize_locked(job, JobStatus.REJECTED, detail=reason)
        return job

    def submit_scenario(self, scenario, **options) -> JobHandle:
        """Queue one :class:`repro.scenarios.Scenario` (kernel + backend + shapes).

        The scenario's kernel, backend restriction and resolved shapes (scale
        plus per-scenario overrides) become the job; any additional keyword
        arguments are forwarded to :meth:`submit`.  The pool must already
        have a worker for the scenario's backend — build one with
        :meth:`repro.pool.SessionPool.for_scenarios`.
        """
        return self.submit(
            scenario.kernel,
            backend=scenario.backend,
            shapes=scenario.shapes(),
            **options,
        )

    def submit_many(self, specs: Iterable[str | KernelSpec], **options) -> list[JobHandle]:
        """Queue a batch of workloads; one handle per workload, input order."""
        return [self.submit(spec, **options) for spec in specs]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def subscribe(self, job_id: str | None = None) -> EventSubscription:
        """Live event feed: one job (history replayed, completes at its
        terminal event) or pool-wide (until the queue closes)."""
        if job_id is None:
            return self._bus.subscribe()
        with self._work:
            job = self._jobs[job_id]
        # Hand the live history to the bus: replay and registration happen
        # under the bus lock, so no event can slip between them.
        return self._bus.subscribe(job_id, job.events)

    def status(self, job_id: str) -> JobRecord:
        with self._work:
            return self._jobs[job_id].record()

    def handle(self, job_id: str) -> JobHandle:
        """A (new) handle for a previously submitted job, by id.

        Lets out-of-process front doors rebuild caller-side handles from the
        ids they returned to clients.  Raises :class:`KeyError` for unknown
        (or GC-evicted) ids.
        """
        with self._work:
            return JobHandle(self, self._jobs[job_id])

    def jobs(self) -> list[JobRecord]:
        """Snapshot of every job record this queue holds: journal-restored
        ones first (journal order), then the rest in submission order."""
        with self._work:
            return [job.record() for job in self._jobs.values()]

    def compact(self) -> int:
        """Rewrite the journal from this queue's jobs and store; returns its
        new line count (0 without a journal).

        Every journal append runs under the queue's lock, and so do the
        snapshot and the rewrite here, so no entry can land between them
        and be lost to the rewrite.  In-flight jobs keep their request and
        checkpoint, so a restarted server can re-queue them.
        """
        if self.journal is None:
            return 0
        with self._work:
            jobs = list(self._jobs.values())
            resume = {
                job.job_id: {"request": job.request(), "checkpoint": job.checkpoint_state}
                for job in jobs
                if not job.status.terminal
            }
            return self.journal.compact(
                [(job.record(), job.report) for job in jobs], self.store.items(), resume=resume
            )

    def gc(self, *, now: float | None = None) -> int:
        """Evict expired/excess *terminal* job records; returns the count.

        Two bounds from :class:`ServeConfig` apply: ``job_ttl_s`` expires
        terminal records by age since ``finished_at``, ``max_records`` caps
        the total record count by evicting the oldest terminal records first.
        In-flight jobs (queued/assigned/running) are never evicted, so the
        record count can exceed ``max_records`` transiently under load.
        Runs opportunistically on every :meth:`submit`.
        """
        config = self.serve_config
        if config.job_ttl_s is None and config.max_records is None:
            return 0
        now = time.time() if now is None else now
        evicted = 0
        with self._work:
            if config.job_ttl_s is not None:
                for job_id, job in list(self._jobs.items()):
                    if (
                        job.status.terminal
                        and job.finished_at is not None
                        and now - job.finished_at >= config.job_ttl_s
                    ):
                        del self._jobs[job_id]
                        evicted += 1
            if config.max_records is not None:
                excess = len(self._jobs) - config.max_records
                if excess > 0:
                    for job_id, job in list(self._jobs.items()):
                        if excess <= 0:
                            break
                        if job.status.terminal:
                            del self._jobs[job_id]
                            evicted += 1
                            excess -= 1
            self._stats["expired"] += evicted
        if evicted:
            _LOG.debug("job-record gc evicted %d terminal record(s)", evicted)
        return evicted

    def metrics(self) -> dict:
        """Live, JSON-able serving snapshot: pending jobs, counters, pool
        worker utilization and result-store stats (the ``/metrics`` payload
        of the remote front door)."""
        with self._work:
            stats = dict(self._stats)
            pending = len(self._pending)
            records = len(self._jobs)
            active = sum(1 for job in self._jobs.values() if not job.status.terminal)
        return {
            "queue": {
                "pending": pending,
                "records": records,
                "active": active,
                **stats,
            },
            "pool": self.pool.snapshot(),
            "store": self.store.snapshot(),
            "health": self.pool.health(),
        }

    @property
    def stats(self) -> dict:
        """Queue counters plus the result-store snapshot."""
        with self._work:
            stats = dict(self._stats)
        stats["store"] = self.store.snapshot()
        return stats

    def join(self, timeout: float | None = None) -> None:
        """Block until every job submitted so far reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            pending = list(self._jobs.values())
        for job in pending:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.done_event.wait(remaining):
                raise TimeoutError(f"job {job.job_id} did not finish within {timeout}s")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, wait: bool = True) -> None:
        """Cancel pending jobs, stop accepting new ones, stop the threads.

        Pending jobs, retries waiting out their backoff among them, end
        cancelled at once.  Running jobs get their cancel flag set and stop at
        the next measurement-service checkpoint; ``wait=True`` (the default)
        joins every queue thread and completes open event subscriptions.
        """
        with self._work:
            if not self._closed:
                self._closed = True
                for job in self._pending:
                    job.cancel_event.set()
                    self._finalize_locked(job, JobStatus.CANCELLED)
                self._pending.clear()
                for job in self._jobs.values():
                    if not job.status.terminal:
                        job.cancel_event.set()
                self._work.notify_all()
        if wait and not self._joined:
            self._joined = True
            for thread in self._threads:
                thread.join()
            self._bus.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals: workers
    # ------------------------------------------------------------------
    def _worker_loop(self, worker) -> None:
        while True:
            with self._work:
                while (job := self._claim_locked(worker)) is None:
                    if self._closed:
                        return
                    self._work.wait(self._backoff_left_locked())
            self._run_job(worker, job)

    def _claim_locked(self, worker) -> _Job | None:
        """Take the oldest ready pending job ``worker`` may run, or ``None``.

        A job may run on a worker when its pin (if any) is that worker and
        its backend (if any) is that worker's; a retried job is ready once
        its backoff has passed.  A poisoned worker claims nothing until
        supervision revived its session, so its siblings take every job
        they may run.
        """
        if not worker.healthy:
            return None
        now = time.monotonic()
        for position, job in enumerate(self._pending):
            if job.ready_at > now:
                continue
            if job.pin not in (None, worker.index):
                continue
            if job.backend not in (None, worker.backend):
                continue
            del self._pending[position]
            job.worker_index = worker.index
            job.worker = worker.name
            job.status = JobStatus.ASSIGNED
            self._emit(job, "assigned", worker=worker.name)
            return job
        return None

    def _backoff_left_locked(self) -> float | None:
        """Seconds until the earliest pending retry is ready, or ``None``
        (wait for a notify) when no pending job is backing off."""
        now = time.monotonic()
        return min(
            (job.ready_at - now for job in self._pending if job.ready_at > now),
            default=None,
        )

    def _run_job(self, worker, job: _Job) -> None:
        if job.cancel_event.is_set():
            with self._work:
                if not job.status.terminal:
                    self._finalize_locked(job, JobStatus.CANCELLED)
            return
        session = worker.session
        job.started_at = time.time()
        started = time.perf_counter()

        if job.use_store:
            key = self._store_key(session, job)
            hit = None if key is None else self.store.get(key)
            if hit is not None:
                ok, rules, why = self._store_hit_ok(hit)
                if not ok:
                    self.store.invalidate(key)
                    with self._work:
                        job.invalidation_rules = tuple(rules)
                        self._emit(
                            job, "invalidated", worker=worker.name,
                            detail=why, rules=tuple(rules),
                        )
                    hit = None  # fall through: re-optimize instead of serving it
            if hit is not None:
                with self._work:
                    job.from_store = True
                    job.cache_key = key
                    self._stats["store_hits"] += 1
                    worker.jobs_run += 1
                    worker.busy_s += time.perf_counter() - started
                    self._finalize_locked(job, JobStatus.DONE, report=hit, detail="store-hit")
                return

        with self._work:
            job.status = JobStatus.RUNNING
            self._emit(job, "running", worker=worker.name)

        report: RunReport | None = None
        cancelled = False
        failure: Exception | None = None
        try:
            report = session.optimize(
                job.spec,
                shapes=job.shapes,
                strategy=job.strategy,
                verify=job.verify,
                store=job.store,
                hooks=SessionHooks(
                    checkpoint=self._checkpoint_for(job),
                    progress=self._progress_for(job),
                    save_state=self._save_state_for(job),
                    resume_state=job.checkpoint_state,
                ),
            )
            if report is None:
                # Slot-completeness guard: a misbehaving worker path must
                # surface as a failed report, never as a silently lost job.
                raise OptimizationError(
                    f"worker {worker.name} produced no report for {job.kernel}"
                )
        except JobCancelled:
            cancelled = True
        except Exception as exc:  # noqa: BLE001 - jobs fail as reports
            _LOG.warning(
                "job %s (%s) failed on %s: %s", job.job_id, job.kernel, worker.name, exc
            )
            failure = exc
        elapsed = time.perf_counter() - started

        if failure is not None and is_infrastructure_failure(failure):
            # A crash poisoned the worker, not just this job: mark it
            # unhealthy and respawn its session.
            self._supervise_worker(worker, failure)
        if failure is not None and self._schedule_retry(worker, job, failure, elapsed):
            return  # the job waits out its backoff in the pending deque
        if failure is not None:
            report = RunReport.from_error(
                kernel=job.kernel,
                gpu=session.gpu_name,
                strategy=job.strategy or session.config.strategy,
                error=f"{type(failure).__name__}: {failure}",
            )

        with self._work:
            worker.busy_s += elapsed
            if cancelled:
                self._finalize_locked(job, JobStatus.CANCELLED)
                return
            worker.jobs_run += 1
            worker.failures += 1 if report.failed else 0
            worker.evaluations += report.evaluations
            job.cache_key = report.cache_key
        key = None if report.failed else report.cache_key or self._store_key(session, job)
        with self._work:
            if key is not None:
                self.store.put(key, report)
                self._journal("store", key, report)
            self._finalize_locked(
                job,
                JobStatus.FAILED if report.failed else JobStatus.DONE,
                report=report,
                detail=report.error or "",
            )

    # ------------------------------------------------------------------
    # Internals: shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _store_key(session, job: _Job) -> str | None:
        try:
            return session.key_for(job.spec, job.shapes)
        except Exception:
            return None  # unknown spec: let the run itself surface the error

    def _store_hit_ok(self, hit: RunReport) -> tuple[bool, tuple[str, ...], str]:
        """Gate a result-store hit behind the static schedule verifier.

        A stored report is served only while its schedule still audits as a
        dependence-preserving permutation of the seed it was optimized from;
        a hit that no longer verifies (stale entry, corrupted artifact) is
        invalidated and the job re-optimizes instead.  Reports without an
        artifact carry no schedule to audit and pass through unchanged.  The
        audit reads the verifier pinned on the stored seed (the optimizing
        job's), so a hit builds nothing while that seed lives.

        Returns ``(ok, rule_codes, detail)``: the verifier rule codes that
        fired are surfaced in the job's ``invalidated`` event and record so
        clients can see *why* a cached result was thrown away.
        """
        artifact = hit.artifact
        if artifact is None:
            return True, (), ""
        try:
            result = verify_schedule(
                artifact.compiled.kernel, artifact.optimized.kernel,
                include_warnings=False,
            )
        except Exception as exc:  # noqa: BLE001 - a crashing audit is a failed audit
            why = f"store-hit audit crashed ({type(exc).__name__}: {exc})"
            _LOG.warning("%s for %s; invalidating the entry", why, hit.kernel)
            return False, (), why
        if not result.ok:
            rules = tuple(sorted({diag.rule for diag in result.errors}))
            why = (
                f"store-hit failed re-verification with {len(result.errors)} "
                f"error(s): {', '.join(rules)}"
            )
            _LOG.warning(
                "store-hit for %s %s; invalidating the entry and re-optimizing",
                hit.kernel, why,
            )
            return False, rules, why
        return True, (), ""

    def _checkpoint_for(self, job: _Job):
        def checkpoint() -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(f"job {job.job_id} ({job.kernel}) was cancelled")
            if self.faults is not None:
                # Chaos harness: this is the per-measurement tick where a
                # planned worker crash or measurement delay fires.
                self.faults.on_measurement(worker=job.worker_index, job_id=job.job_id)

        return checkpoint

    def _save_state_for(self, job: _Job):
        """Checkpoint sink handed to the strategy via ``SessionHooks``.

        The latest exported search state is kept on the job (a retry resumes
        from it in-process) and journaled (a restarted server resumes from
        it across processes); both are best-effort and never fail the run.
        """

        def save_state(state) -> None:
            if not isinstance(state, dict):
                return
            snapshot = dict(state)
            with self._work:
                job.checkpoint_state = snapshot
                self._journal("checkpoint", job.job_id, snapshot)

        return save_state

    def _progress_for(self, job: _Job):
        every = max(1, self.serve_config.progress_every)

        def progress(submitted: int) -> None:
            job.measured = submitted
            if submitted == 1 or submitted - job.last_progress_emit >= every:
                job.last_progress_emit = submitted
                self._emit(job, "measured", worker=job.worker, measured=submitted)

        return progress

    # ------------------------------------------------------------------
    # Internals: supervision and retry
    # ------------------------------------------------------------------
    def _supervise_worker(self, worker, exc: Exception) -> None:
        """Contain and repair a poisoned worker.

        Marks it unhealthy, so it claims nothing and its siblings take every
        job they may run, then respawns a fresh session on the same backend
        via ``SessionPool.revive_worker``.  This runs on the worker's own
        thread, so jobs pinned to it wait until the revival is done.
        """
        with self._work:
            self._stats["worker_failures"] += 1
            worker.healthy = False
            worker.last_error = f"{type(exc).__name__}: {exc}"
        _LOG.warning("worker %s poisoned by %s; respawning", worker.name, worker.last_error)
        try:
            self.pool.revive_worker(worker.index, error=worker.last_error)
        except Exception as revive_exc:  # noqa: BLE001 - stay degraded, keep serving
            _LOG.error(
                "failed to respawn worker %s: %s; it stays unhealthy",
                worker.name, revive_exc,
            )

    def _schedule_retry(self, worker, job: _Job, exc: Exception, elapsed: float) -> bool:
        """Put ``job`` back at the end of the pending deque after an
        infrastructure failure, ready once its backoff has passed; ``True``
        when it will retry (the caller must not finalize the job).

        Only infrastructure failures retry — verifier rejections and user
        errors are deterministic and would fail identically again.  The
        retry count and backoff come from ``ServeConfig.retry``.
        """
        if not is_infrastructure_failure(exc):
            return False
        policy = self.serve_config.retry
        if policy is None or policy.max_attempts <= 1:
            return False
        with self._work:
            if self._closed or job.cancel_event.is_set() or job.status.terminal:
                return False
            next_attempt = job.attempt + 1
            if next_attempt >= policy.max_attempts:
                return False
            delay = policy.delay_for(next_attempt)
            # The failed attempt's accounting happens here because the normal
            # post-run accounting path is skipped for a retried job.
            worker.busy_s += elapsed
            job.attempt = next_attempt
            job.status = JobStatus.QUEUED
            job.worker_index = None
            job.worker = None
            job.ready_at = time.monotonic() + delay
            self._pending.append(job)
            self._stats["retries"] += 1
            self._emit(
                job, "retrying", worker=worker.name, attempt=job.attempt,
                measured=job.measured,
                detail=(
                    f"{type(exc).__name__}: {exc}; retry "
                    f"{next_attempt + 1}/{policy.max_attempts} in {delay:.3f}s"
                ),
            )
            self._work.notify_all()
        _LOG.info(
            "job %s (%s) retrying after %s: attempt %d/%d in %.3fs",
            job.job_id, job.kernel, type(exc).__name__,
            next_attempt + 1, policy.max_attempts, delay,
        )
        return True

    def _cancel(self, job: _Job) -> bool:
        with self._work:
            if job.status.terminal:
                return False
            job.cancel_event.set()
            if job.status is JobStatus.QUEUED:
                self._pending.remove(job)
                self._finalize_locked(job, JobStatus.CANCELLED)
            # ASSIGNED: the worker re-checks the flag before it runs the job.
            # RUNNING: cooperative — the measurement-service checkpoint
            # raises JobCancelled within one candidate batch.
            return True

    def _finalize_locked(self, job: _Job, status: JobStatus, *, report=None, detail="") -> None:
        job.status = status
        job.finished_at = time.time()
        if report is not None:
            job.report = report
            if report.failed:
                job.error = report.error
        self._stats[status.value] += 1
        self._emit(
            job, status.value, worker=job.worker, measured=job.measured,
            detail=detail, rules=self._terminal_rules(job, report),
        )
        self._journal("terminal", job.record(), job.report)
        job.done_event.set()

    @staticmethod
    def _terminal_rules(job: _Job, report) -> tuple:
        """Verifier rule codes a client should see with the terminal event:
        the codes that invalidated a store hit, plus any error-severity
        findings that made the final report fall back to -O3."""
        rules = list(job.invalidation_rules)
        if report is not None and report.verified is False:
            for diag in report.diagnostics:
                code = diag.get("rule") if isinstance(diag, dict) else None
                if code and diag.get("severity") == "error" and code not in rules:
                    rules.append(code)
        return tuple(rules)

    def _journal(self, kind: str, *args, **kwargs) -> None:
        """Append one ``kind`` entry through ``journal.record_<kind>``; the
        caller holds the queue's lock (see :meth:`compact`).  Durability is
        best-effort, so a failed append is only logged."""
        journal = self.journal
        if journal is None:
            return
        try:
            getattr(journal, f"record_{kind}")(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            _LOG.warning("journal %s entry failed: %s", kind, exc)

    def _emit(self, job: _Job, kind: str, **event) -> None:
        self._bus.publish(job.events, job_id=job.job_id, kind=kind, **event)
