"""The serving front door: an async job queue over a :class:`SessionPool`.

``submit()`` returns a :class:`JobHandle` immediately; a dispatcher thread
places each job on a per-worker queue (respecting backend constraints and
outstanding backlog), one worker thread per pool worker drains its own queue
in FIFO order, and — the part static sharding cannot do — an **idle worker
steals** queued jobs from the tail of the deepest compatible sibling queue,
so a skewed batch no longer leaves half the pool idle behind one long job.

Callers interleave optimization with deployment instead of blocking on the
whole batch::

    with SessionPool(["A100-sim", "A100-sim"]) as pool:
        queue = pool.serve()
        handles = queue.submit_many(["bmm", "softmax", "rmsnorm"])
        for event in queue.subscribe():          # pool-wide progress stream
            print(event.kind, event.job_id)
        report = handles[0].result(timeout=60)   # or .cancel(), .done()

Three more serving behaviors ride on the queue:

* **cancellation** — ``handle.cancel()`` pulls a queued job back instantly;
  a running job is stopped cooperatively at the next measurement-service
  checkpoint, i.e. within one candidate batch;
* **progress events** — every job streams
  ``queued → assigned → running → measured(n) → done/failed/cancelled``
  (see :mod:`repro.serve.events`), subscribable per-job and pool-wide;
* **result store** — finished reports are kept per §4.2 cache key for the
  pool's lifetime, so a re-submitted ``(workload, backend)`` pair resolves
  instantly without re-optimizing (see :mod:`repro.serve.store`).

:meth:`repro.pool.SessionPool.optimize_many` is a thin synchronous wrapper
over this queue: it pins each job to the worker the configured scheduler
chose and waits for every handle, which preserves the historical sharding
semantics exactly while sharing one execution path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable, Sequence

from repro.analysis.verify import verify_schedule
from repro.api.backends import backend_spec
from repro.api.config import ServeConfig
from repro.api.report import JobRecord, JobStatus, RunReport
from repro.api.session import SessionHooks
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


class _Job:
    """Mutable queue-internal job state; callers see it through JobHandle."""

    __slots__ = (
        "id", "spec", "name", "shapes", "strategy", "verify", "store", "cost",
        "backend", "pin", "use_store", "status", "cancel_event", "done_event",
        "report", "error", "worker_index", "worker", "stolen", "from_store",
        "measured", "last_progress_emit", "submitted_at", "started_at",
        "finished_at", "cache_key", "events", "tenant", "invalidation_rules",
        "attempt", "checkpoint_state", "resumed", "request", "retry_delay_total",
    )

    def __init__(self, job_id, spec, name, shapes, strategy, verify, store,
                 cost, backend, pin, use_store, tenant=None):
        self.id = job_id
        self.spec = spec
        self.name = name
        self.shapes = shapes
        self.strategy = strategy
        self.verify = verify
        self.store = store
        self.cost = cost
        self.backend = backend
        self.pin = pin
        self.use_store = use_store
        self.status = JobStatus.QUEUED
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        self.report: RunReport | None = None
        self.error: str | None = None
        self.worker_index: int | None = None
        self.worker: str | None = None
        self.stolen = False
        self.from_store = False
        self.measured = 0
        self.last_progress_emit = 0
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cache_key: str | None = None
        self.events: list[ProgressEvent] = []
        self.tenant = tenant
        self.invalidation_rules: tuple = ()
        #: Retries consumed so far (0 on the first attempt).
        self.attempt = 0
        #: Latest strategy checkpoint exported through SessionHooks.save_state;
        #: retried and restart-resumed runs hand it back as resume_state.
        self.checkpoint_state: dict | None = None
        #: The job was re-queued after a server restart.
        self.resumed = False
        #: JSON-able submission parameters (journaled so a restarted server
        #: can re-submit lost in-flight jobs faithfully).
        self.request: dict | None = None
        #: Cumulative retry backoff spent, charged against RetryPolicy.budget_s.
        self.retry_delay_total = 0.0

    def record(self) -> JobRecord:
        return JobRecord(
            job_id=self.id,
            kernel=self.name,
            backend=self.backend,
            status=self.status,
            worker=self.worker,
            cost=self.cost,
            stolen=self.stolen,
            from_store=self.from_store,
            measured=self.measured,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            cache_key=self.cache_key,
            tenant=self.tenant,
            invalidation_rules=self.invalidation_rules,
            attempt=self.attempt,
            resumed=self.resumed,
        )


class JobHandle:
    """Caller-side view of one submitted job: poll, wait, cancel, observe."""

    def __init__(self, queue: "JobQueue", job: _Job):
        self._queue = queue
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def status(self) -> JobStatus:
        return self._job.status

    def done(self) -> bool:
        """Whether the job reached a terminal state (done/failed/cancelled)."""
        return self._job.done_event.is_set()

    def cancel(self) -> bool:
        """Request cancellation; ``False`` if the job already finished.

        A queued job is pulled back immediately; a running one stops at its
        next measurement-service checkpoint (within one candidate batch).
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
            raise JobCancelled(f"job {self.job_id} ({self._job.name}) was cancelled")
        if self._job.status is JobStatus.REJECTED:
            raise AdmissionError(
                f"job {self.job_id} ({self._job.name}) was rejected: "
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
    def stolen(self) -> bool:
        return self._job.stolen

    @property
    def from_store(self) -> bool:
        return self._job.from_store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobHandle({self.job_id!r}, {self._job.name!r}, {self.status.value})"


class JobQueue:
    """Async job-queue front door over a :class:`repro.pool.SessionPool`.

    The queue does not own the pool (``SessionPool.close`` tears down its
    queue, not the other way around); closing the queue stops its threads
    and cancels still-pending jobs but leaves the worker sessions usable.
    """

    def __init__(
        self,
        pool,
        *,
        serve: ServeConfig | None = None,
        journal=None,
        counter_start: int = 0,
        faults=None,
        clock=time.monotonic,
    ):
        if pool.closed:
            raise OptimizationError("cannot serve from a closed session pool")
        self.pool = pool
        self.serve_config = serve or ServeConfig()
        #: Optional :class:`repro.faults.FaultPlan` consulted at the
        #: measurement checkpoint of every running job (chaos testing).
        self.faults = faults
        #: Injectable monotonic clock; retry-budget accounting and backoff
        #: bookkeeping read it so tests can drive time deterministically.
        self.clock = clock
        self.store = (
            ResultStore(self.serve_config.store_max_entries)
            if self.serve_config.result_store
            else None
        )
        #: Optional durability hook (see :class:`repro.remote.JobJournal`):
        #: ``record_submitted(record)`` / ``record_terminal(record, report)``
        #: / ``record_store(key, report)`` are invoked as serving state
        #: changes; journal failures are logged, never fatal to serving.
        self.journal = journal
        self._bus = EventBus()
        self._work = threading.Condition(threading.Lock())
        self._inbox: "deque[_Job]" = deque()
        self._queues: "list[deque[_Job]]" = [deque() for _ in pool.workers]
        self._jobs: dict[str, _Job] = {}
        # counter_start lets a restarted server mint ids after the highest
        # journaled one, so replayed records never collide with fresh jobs.
        self._counter = max(0, counter_start)
        self._closed = False
        self._joined = False
        self._stats = {
            "submitted": 0, "done": 0, "failed": 0, "cancelled": 0,
            "rejected": 0, "stolen": 0, "store_hits": 0, "expired": 0,
            "retries": 0, "worker_failures": 0, "resumed": 0,
        }
        #: Pending backoff timers of jobs awaiting a retry, by job id.
        self._retry_timers: dict[str, threading.Timer] = {}
        self._threads = [
            threading.Thread(target=self._dispatch_loop, name="serve-dispatch", daemon=True)
        ]
        self._threads.extend(
            threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"serve-{worker.name}", daemon=True,
            )
            for index, worker in enumerate(pool.workers)
        )
        for thread in self._threads:
            thread.start()
        _LOG.info(
            "serve queue up: %d workers, steal=%s, result_store=%s",
            len(pool.workers), self.serve_config.steal, self.store is not None,
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
        verify: bool | None = None,
        store: bool = True,
        cost: float = 1.0,
        use_store: bool = True,
        pin_worker: int | None = None,
        tenant: str | None = None,
        job_id: str | None = None,
        resume_state: dict | None = None,
        resumed: bool = False,
        attempt: int = 0,
        enforce_admission: bool = True,
    ) -> JobHandle:
        """Queue one workload and return its handle immediately.

        ``backend`` restricts the job to workers of that GPU target (it stays
        stealable between them); ``pin_worker`` (used by the
        ``optimize_many`` compatibility wrapper) nails it to one worker index
        and exempts it from stealing.  ``use_store=False`` forces a fresh
        optimization even when the result store already holds this key.
        ``tenant`` is recorded for accounting (the remote front door charges
        its quota before submitting).  An unknown ``backend`` or ``strategy``
        raises ``KeyError`` before any job is minted.

        With ``ServeConfig.max_pending`` set, a submission arriving while
        that many jobs are already waiting is refused: the job is minted
        terminal-``rejected`` (so its record and ``rejected`` event are
        observable) and :class:`repro.errors.AdmissionError` is raised.

        The restart-resume path (:class:`repro.remote.RemoteApp`) re-queues
        journal-replayed in-flight jobs under their *original* ``job_id``,
        hands the last journaled strategy checkpoint back via
        ``resume_state``, marks them ``resumed`` and keeps their ``attempt``
        count; ``enforce_admission=False`` exempts them from ``max_pending``
        — they were admitted (and quota-charged) before the restart.
        """
        canonical = None
        if backend is not None:
            canonical = backend_spec(backend).name
            if not any(worker.backend == canonical for worker in self.pool.workers):
                raise KeyError(
                    f"no pool worker targets backend {canonical!r}; "
                    f"workers: {[worker.name for worker in self.pool.workers]}"
                )
        if strategy is not None:
            strategy = get_strategy(strategy).name
        if pin_worker is not None and not 0 <= pin_worker < len(self.pool.workers):
            raise ValueError(f"pin_worker {pin_worker} out of range")
        self.gc()  # opportunistic TTL/bound sweep of terminal records
        name = spec if isinstance(spec, str) else spec.name
        max_pending = self.serve_config.max_pending
        with self._work:
            if self._closed:
                raise OptimizationError("job queue is closed")
            pending = len(self._inbox) + sum(len(queued) for queued in self._queues)
            if (
                enforce_admission
                and max_pending is not None
                and pending >= max_pending
            ):
                job = self._mint_rejected_locked(
                    spec, name, cost=float(cost), backend=canonical, tenant=tenant,
                    reason=f"pending queue full ({pending} waiting >= {max_pending})",
                )
                raise AdmissionError(
                    f"job {job.id} ({name}) rejected: {job.error}",
                    reason="pending-queue-full",
                    job_id=job.id,
                    tenant=tenant,
                )
            if job_id is None:
                self._counter += 1
                job_id = f"j{self._counter:05d}"
            elif job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists in this queue")
            job = _Job(
                job_id=job_id,
                spec=spec, name=name, shapes=shapes, strategy=strategy,
                verify=verify, store=store, cost=float(cost),
                backend=canonical, pin=pin_worker, use_store=use_store,
                tenant=tenant,
            )
            job.attempt = max(0, int(attempt))
            job.resumed = bool(resumed)
            if resume_state is not None:
                job.checkpoint_state = dict(resume_state)
            job.request = {
                "shapes": dict(shapes) if shapes is not None else None,
                "strategy": strategy,
                "verify": verify,
                "store": bool(store),
                "use_store": bool(use_store),
            }
            self._jobs[job.id] = job
            self._stats["submitted"] += 1
            if job.resumed:
                self._stats["resumed"] += 1
            self._inbox.append(job)
            self._emit(job, "queued", detail="resumed from journal" if job.resumed else "")
            self._journal_submitted(job)
            self._work.notify_all()
        return JobHandle(self, job)

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
            job_id=f"j{self._counter:05d}",
            spec=spec, name=name, shapes=None, strategy=None,
            verify=None, store=False, cost=cost,
            backend=backend, pin=None, use_store=False, tenant=tenant,
        )
        job.error = reason
        self._jobs[job.id] = job
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

    def submit_many(
        self,
        specs: Iterable[str | KernelSpec],
        *,
        costs: Sequence[float] | None = None,
        **options,
    ) -> list[JobHandle]:
        """Queue a batch of workloads; one handle per workload, input order."""
        resolved = list(specs)
        if costs is not None and len(costs) != len(resolved):
            raise ValueError(
                f"costs must match the workload count: {len(costs)} != {len(resolved)}"
            )
        return [
            self.submit(
                spec,
                cost=float(costs[index]) if costs is not None else 1.0,
                **options,
            )
            for index, spec in enumerate(resolved)
        ]

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
        """Snapshot of every job this queue has seen, submission order."""
        with self._work:
            return [job.record() for job in self._jobs.values()]

    def records_with_reports(self) -> list:
        """Snapshot of ``(record, report)`` pairs for journal compaction."""
        with self._work:
            return [(job.record(), job.report) for job in self._jobs.values()]

    def resume_snapshot(self) -> dict:
        """Per-job resume payloads of every in-flight job, for compaction.

        Maps job id to ``{"request": ..., "checkpoint": ...}`` so a compacted
        journal keeps enough to re-queue these jobs after a restart."""
        with self._work:
            return {
                job.id: {"request": job.request, "checkpoint": job.checkpoint_state}
                for job in self._jobs.values()
                if not job.status.terminal
            }

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
        """Live, JSON-able serving snapshot: queue depths, counters, pool
        worker utilization and result-store stats (the ``/metrics`` payload
        of the remote front door)."""
        with self._work:
            stats = dict(self._stats)
            depths = [len(queued) for queued in self._queues]
            inbox = len(self._inbox)
            records = len(self._jobs)
            active = sum(1 for job in self._jobs.values() if not job.status.terminal)
        return {
            "queue": {
                "inbox_depth": inbox,
                "worker_depths": depths,
                "pending": inbox + sum(depths),
                "records": records,
                "active": active,
                **stats,
            },
            "pool": self.pool.snapshot(),
            "store": {} if self.store is None else self.store.snapshot(),
            "health": self.pool.health(),
        }

    @property
    def stats(self) -> dict:
        """Queue counters plus the result-store snapshot (if enabled)."""
        with self._work:
            stats = dict(self._stats)
        stats["store"] = {} if self.store is None else self.store.snapshot()
        return stats

    def join(self, timeout: float | None = None) -> None:
        """Block until every job submitted so far reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            pending = list(self._jobs.values())
        for job in pending:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.done_event.wait(remaining):
                raise TimeoutError(f"job {job.id} did not finish within {timeout}s")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, wait: bool = True) -> None:
        """Cancel pending jobs, stop accepting new ones, stop the threads.

        Running jobs get their cancel flag set and stop at the next
        measurement-service checkpoint; ``wait=True`` (the default) joins
        every queue thread and completes open event subscriptions.
        """
        with self._work:
            if not self._closed:
                self._closed = True
                for job_id, timer in list(self._retry_timers.items()):
                    timer.cancel()
                    job = self._jobs.get(job_id)
                    if job is not None and not job.status.terminal:
                        job.cancel_event.set()
                        self._finalize_locked(job, JobStatus.CANCELLED)
                self._retry_timers.clear()
                for job in list(self._inbox):
                    job.cancel_event.set()
                    self._finalize_locked(job, JobStatus.CANCELLED)
                self._inbox.clear()
                for index, pending in enumerate(self._queues):
                    for job in list(pending):
                        job.cancel_event.set()
                        worker = self.pool.workers[index]
                        worker.backlog = max(0.0, worker.backlog - job.cost)
                        self._finalize_locked(job, JobStatus.CANCELLED)
                    pending.clear()
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
    # Internals: dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._work:
                while not self._inbox and not self._closed:
                    self._work.wait()
                if not self._inbox:
                    return  # closed and drained
                job = self._inbox.popleft()
                if job.cancel_event.is_set():
                    if not job.status.terminal:
                        self._finalize_locked(job, JobStatus.CANCELLED)
                    continue
                target = self._place_locked(job)
                job.worker_index = target
                job.worker = self.pool.workers[target].name
                job.status = JobStatus.ASSIGNED
                self.pool.workers[target].backlog += job.cost
                self._queues[target].append(job)
                self._emit(job, "assigned", worker=job.worker)
                self._work.notify_all()

    def _place_locked(self, job: _Job) -> int:
        """Pick the worker for a freshly dispatched job (lock held)."""
        if job.pin is not None:
            return job.pin
        eligible = [
            index
            for index, worker in enumerate(self.pool.workers)
            if job.backend is None or worker.backend == job.backend
        ]
        healthy = [
            index for index in eligible
            if getattr(self.pool.workers[index], "healthy", True)
        ]
        # Prefer healthy workers; with none healthy fall back to any eligible
        # one so the job queues instead of erroring (supervision revives the
        # worker before its loop claims again).
        eligible = healthy or eligible
        return min(
            eligible,
            key=lambda index: (
                self.pool.workers[index].backlog,
                len(self._queues[index]),
                index,
            ),
        )

    # ------------------------------------------------------------------
    # Internals: workers
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        worker = self.pool.workers[index]
        while True:
            with self._work:
                job = self._claim_locked(index)
                while job is None:
                    if self._closed and not self._queues[index] and not self._inbox:
                        return
                    self._work.wait(timeout=0.2)
                    job = self._claim_locked(index)
            self._run_job(worker, job)

    def _claim_locked(self, index: int) -> _Job | None:
        """Next job for worker ``index``: own queue first, then a steal."""
        if not getattr(self.pool.workers[index], "healthy", True):
            # A poisoned worker claims nothing until supervision revived its
            # session; its backlog was already re-queued to siblings.
            return None
        own = self._queues[index]
        if own:
            return own.popleft()
        config = self.serve_config
        if not config.steal or self._closed:
            return None
        thief = self.pool.workers[index]
        min_depth = max(1, config.steal_min_depth)
        victims = sorted(
            (
                victim
                for victim in range(len(self._queues))
                if victim != index and len(self._queues[victim]) >= min_depth
            ),
            key=lambda victim: -len(self._queues[victim]),
        )
        for victim in victims:
            backlog_queue = self._queues[victim]
            # Steal from the tail: the victim keeps draining its head in
            # submission order while the thief absorbs the newest overflow.
            for position in range(len(backlog_queue) - 1, -1, -1):
                job = backlog_queue[position]
                if job.pin is not None:
                    continue
                if job.backend is not None and thief.backend != job.backend:
                    continue
                del backlog_queue[position]
                victim_worker = self.pool.workers[victim]
                victim_worker.backlog = max(0.0, victim_worker.backlog - job.cost)
                thief.backlog += job.cost
                job.stolen = True
                job.worker_index = index
                job.worker = thief.name
                self._stats["stolen"] += 1
                self._emit(
                    job, "assigned", worker=thief.name, stolen=True,
                    detail=f"stolen from {victim_worker.name}",
                )
                return job
        return None

    def _run_job(self, worker, job: _Job) -> None:
        if job.cancel_event.is_set():
            with self._work:
                worker.backlog = max(0.0, worker.backlog - job.cost)
                if not job.status.terminal:
                    self._finalize_locked(job, JobStatus.CANCELLED)
            return
        session = worker.session
        job.started_at = time.time()
        started = time.perf_counter()

        if self.store is not None and job.use_store:
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
                    worker.backlog = max(0.0, worker.backlog - job.cost)
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
                    f"worker {worker.name} produced no report for {job.name}"
                )
        except JobCancelled:
            cancelled = True
        except Exception as exc:  # noqa: BLE001 - jobs fail as reports
            _LOG.warning("job %s (%s) failed on %s: %s", job.id, job.name, worker.name, exc)
            failure = exc
        elapsed = time.perf_counter() - started

        if failure is not None and is_infrastructure_failure(failure):
            # A crash poisoned the worker, not just this job: mark it
            # unhealthy, re-queue its backlog and respawn its session.
            self._supervise_worker(worker, failure)
        if failure is not None and self._schedule_retry(worker, job, failure, elapsed):
            return  # the retry timer owns the job now
        if failure is not None:
            report = RunReport.from_error(
                kernel=job.name,
                gpu=session.gpu_name,
                strategy=job.strategy or session.config.strategy,
                error=f"{type(failure).__name__}: {failure}",
            )

        with self._work:
            worker.busy_s += elapsed
            worker.backlog = max(0.0, worker.backlog - job.cost)
            if cancelled:
                self._finalize_locked(job, JobStatus.CANCELLED)
                return
            worker.jobs_run += 1
            worker.failures += 1 if report.failed else 0
            worker.evaluations += report.evaluations
            job.cache_key = report.cache_key
        if not report.failed and self.store is not None:
            key = report.cache_key or self._store_key(session, job)
            if key is not None:
                self.store.put(key, report)
                self._journal_store(key, report)
        with self._work:
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
        artifact carry no schedule to audit and pass through unchanged.

        Returns ``(ok, rule_codes, detail)``: the verifier rule codes that
        fired are surfaced in the job's ``invalidated`` event and record so
        clients can see *why* a cached result was thrown away.
        """
        if not self.serve_config.verify_store_hits:
            return True, (), ""
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
                raise JobCancelled(f"job {job.id} ({job.name}) was cancelled")
            if self.faults is not None:
                # Chaos harness: this is the per-measurement tick where a
                # planned worker crash or measurement delay fires.
                self.faults.on_measurement(worker=job.worker_index, job_id=job.id)

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
            self._journal_checkpoint(job, snapshot)

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

        Marks it unhealthy (its loop stops claiming, the dispatcher stops
        placing), re-queues its remaining backlog to the front of the inbox
        so healthy siblings absorb it in order, then respawns a fresh
        session on the same backend via ``SessionPool.revive_worker``.
        """
        with self._work:
            self._stats["worker_failures"] += 1
            worker.healthy = False
            worker.last_error = f"{type(exc).__name__}: {exc}"
            drained: list[_Job] = []
            if worker.index < len(self._queues):
                backlog_queue = self._queues[worker.index]
                while backlog_queue:
                    orphan = backlog_queue.popleft()
                    worker.backlog = max(0.0, worker.backlog - orphan.cost)
                    orphan.status = JobStatus.QUEUED
                    orphan.worker_index = None
                    orphan.worker = None
                    drained.append(orphan)
            # Front of the inbox, original order: the dispatcher re-places
            # these before any newer submissions.
            self._inbox.extendleft(reversed(drained))
            if drained:
                self._work.notify_all()
        _LOG.warning(
            "worker %s poisoned by %s; re-queued %d backlog job(s), respawning",
            worker.name, worker.last_error, len(drained),
        )
        try:
            self.pool.revive_worker(worker.index, error=worker.last_error)
        except Exception as revive_exc:  # noqa: BLE001 - stay degraded, keep serving
            _LOG.error(
                "failed to respawn worker %s: %s; it stays unhealthy",
                worker.name, revive_exc,
            )

    def _schedule_retry(self, worker, job: _Job, exc: Exception, elapsed: float) -> bool:
        """Arm a backoff timer to re-run ``job`` after an infrastructure
        failure; ``True`` when the retry was scheduled (the caller must not
        finalize the job).

        Only infrastructure failures retry — verifier rejections and user
        errors are deterministic and would fail identically again.  The
        retry count, per-policy backoff and optional cumulative delay budget
        all come from ``ServeConfig.retry``.
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
            if (
                policy.budget_s is not None
                and job.retry_delay_total + delay > policy.budget_s
            ):
                return False
            job.retry_delay_total += delay
            # The failed attempt's accounting happens here because the normal
            # post-run accounting path is skipped for a retried job.
            worker.busy_s += elapsed
            worker.backlog = max(0.0, worker.backlog - job.cost)
            job.attempt = next_attempt
            job.status = JobStatus.QUEUED
            job.worker_index = None
            job.worker = None
            self._stats["retries"] += 1
            self._emit(
                job, "retrying", worker=worker.name, attempt=job.attempt,
                measured=job.measured,
                detail=(
                    f"{type(exc).__name__}: {exc}; retry "
                    f"{next_attempt + 1}/{policy.max_attempts} in {delay:.3f}s"
                ),
            )
            timer = threading.Timer(delay, self._requeue_retry, args=(job,))
            timer.daemon = True
            self._retry_timers[job.id] = timer
            timer.start()
        _LOG.info(
            "job %s (%s) retrying after %s: attempt %d/%d in %.3fs",
            job.id, job.name, type(exc).__name__,
            next_attempt + 1, policy.max_attempts, delay,
        )
        return True

    def _requeue_retry(self, job: _Job) -> None:
        """Backoff-timer callback: put the job back in the inbox."""
        with self._work:
            self._retry_timers.pop(job.id, None)
            if job.status.terminal:
                return
            if self._closed or job.cancel_event.is_set():
                self._finalize_locked(job, JobStatus.CANCELLED)
                return
            self._inbox.append(job)
            self._work.notify_all()

    def _cancel(self, job: _Job) -> bool:
        with self._work:
            if job.status.terminal:
                return False
            job.cancel_event.set()
            if job.status is JobStatus.QUEUED:
                try:
                    self._inbox.remove(job)
                except ValueError:
                    pass  # the dispatcher holds it; it re-checks the flag
                else:
                    self._finalize_locked(job, JobStatus.CANCELLED)
                return True
            if job.status is JobStatus.ASSIGNED and job.worker_index is not None:
                pending = self._queues[job.worker_index]
                try:
                    pending.remove(job)
                except ValueError:
                    pass  # a worker already claimed it; it re-checks the flag
                else:
                    assigned = self.pool.workers[job.worker_index]
                    assigned.backlog = max(0.0, assigned.backlog - job.cost)
                    self._finalize_locked(job, JobStatus.CANCELLED)
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
            stolen=job.stolen, detail=detail, rules=self._terminal_rules(job, report),
        )
        self._journal_terminal(job)
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

    def _journal_submitted(self, job: _Job) -> None:
        if self.journal is None:
            return
        try:
            try:
                self.journal.record_submitted(job.record(), request=job.request)
            except TypeError:
                # Duck-typed journals predating the request parameter.
                self.journal.record_submitted(job.record())
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            _LOG.warning("journal submit record for %s failed: %s", job.id, exc)

    def _journal_checkpoint(self, job: _Job, state: dict) -> None:
        if self.journal is None:
            return
        record_checkpoint = getattr(self.journal, "record_checkpoint", None)
        if record_checkpoint is None:
            return
        try:
            record_checkpoint(job.id, state)
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            _LOG.warning("journal checkpoint for %s failed: %s", job.id, exc)

    def _journal_terminal(self, job: _Job) -> None:
        if self.journal is None:
            return
        try:
            self.journal.record_terminal(job.record(), job.report)
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            _LOG.warning("journal terminal record for %s failed: %s", job.id, exc)

    def _journal_store(self, key: str, report: RunReport) -> None:
        if self.journal is None:
            return
        try:
            self.journal.record_store(key, report)
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            _LOG.warning("journal store entry for %s failed: %s", key, exc)

    def _emit(self, job: _Job, kind: str, **fields) -> None:
        self._bus.publish(job.events, job_id=job.id, kind=kind, **fields)
