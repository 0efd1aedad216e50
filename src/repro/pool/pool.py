""":class:`SessionPool`: shard ``optimize_many`` workloads across worker sessions.

The paper optimizes one kernel on one GPU; the pool is the first step toward
the serve-heavy-traffic deployment story.  It owns one worker
:class:`~repro.api.Session` per configured backend name (duplicates fan out
over the same GPU type), runs job *i* of a batch on worker *i* mod *N*, and
aggregates per-job :class:`~repro.api.report.RunReport`\\ s — failed ones
included — into a :class:`~repro.api.report.PoolReport`::

    from repro.pool import SessionPool

    with SessionPool(["A100-sim", "A30-sim"], cache_dir="./cache") as pool:
        result = pool.optimize_many(["softmax", "bmm", "rmsnorm"])
        result.evaluations_per_sec       # pool-level throughput
        result.reports[1].best_time_ms   # per-job results, input order

Workers are isolated where it matters and shared where it pays:

* each worker's cubin cache lives in a per-backend subdirectory, so deploy
  artifacts of different GPU targets never collide on disk;
* all workers share one :class:`~repro.sim.measure_service.SharedMemoTable`,
  so a schedule measured by one worker is a memo hit for every sibling
  measuring it on the same listing (a verifier-legal schedule) or the same
  workload (any other);
* a job that raises becomes a failed ``RunReport`` in its input-order slot
  without poisoning sibling workers, matching ``Session.optimize_many``'s
  ``on_error="report"/"raise"`` semantics pool-wide.

The pool also exposes an async serving front door — ``pool.serve()``
returns a :class:`repro.serve.JobQueue` with ``submit()`` handles, streamed
progress events, cancellation, one shared job queue and a persistent result
store — and ``optimize_many`` itself is a thin synchronous wrapper over that
queue (job *i* pinned to worker *i* mod *N*), so both paths share one
event-driven execution pipeline.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Iterable

from repro.api.backends import backend_spec, resolve_backend
from repro.api.config import (
    CacheConfig,
    MeasurementPolicy,
    OptimizationConfig,
    PoolConfig,
    ServeConfig,
)
from repro.api.report import PoolReport, RunReport, WorkerReport
from repro.api.session import Session
from repro.errors import JobCancelled, OptimizationError
from repro.sim.measure_service import SharedMemoTable
from repro.triton.spec import KernelSpec
from repro.utils.logging import get_logger

_LOG = get_logger("pool")


class PoolWorker:
    """One worker session plus the bookkeeping the queue and report see."""

    def __init__(self, index: int, session: Session):
        self.index = index
        self.session = session
        self.backend = session.gpu_name
        self.name = f"w{index}:{session.gpu_name}"
        self.jobs_run = 0
        self.failures = 0
        self.evaluations = 0
        self.busy_s = 0.0
        #: Supervision state: an infrastructure failure marks the worker
        #: unhealthy until :meth:`SessionPool.revive_worker` respawns its
        #: session in place.
        self.healthy = True
        self.restarts = 0
        self.last_error: str | None = None

    def snapshot(self) -> tuple[int, int, int, float]:
        """Cumulative counters, for per-run deltas across an optimize_many call."""
        return (self.jobs_run, self.failures, self.evaluations, self.busy_s)

    def report_since(self, snapshot: tuple[int, int, int, float]) -> WorkerReport:
        """This worker's utilization accumulated since ``snapshot`` was taken."""
        jobs, failures, evaluations, busy_s = snapshot
        return WorkerReport(
            worker=self.name,
            gpu=self.backend,
            jobs=self.jobs_run - jobs,
            failures=self.failures - failures,
            evaluations=self.evaluations - evaluations,
            elapsed_s=self.busy_s - busy_s,
        )

    def stats(self) -> dict:
        """Live, JSON-able utilization counters (the ``/metrics`` slice)."""
        return {
            "worker": self.name,
            "backend": self.backend,
            "jobs_run": self.jobs_run,
            "failures": self.failures,
            "evaluations": self.evaluations,
            "busy_s": self.busy_s,
            "evals_per_sec": self.evaluations / self.busy_s if self.busy_s > 0 else 0.0,
            "healthy": self.healthy,
            "restarts": self.restarts,
            "last_error": self.last_error,
        }


class SessionPool:
    """A fixed set of worker sessions behind one ``optimize_many`` front door."""

    def __init__(
        self,
        backends: Iterable[str] | None = None,
        *,
        pool: PoolConfig | None = None,
        cache_dir: str | Path | None = None,
        config: OptimizationConfig | None = None,
        measurement: MeasurementPolicy | None = None,
        cache: CacheConfig | None = None,
    ):
        pool_config = pool or PoolConfig()
        if backends is not None:
            pool_config = pool_config.replace(backends=tuple(backends))
        if not pool_config.backends:
            raise ValueError("a SessionPool needs at least one backend")
        self.config = pool_config
        self.shared_memo = SharedMemoTable()

        base_cache = cache or CacheConfig()
        if cache_dir is not None:
            base_cache = dataclasses.replace(base_cache, directory=cache_dir)
        base_measurement = measurement or MeasurementPolicy()
        #: Base cache directory (per-backend caches are namespaced under it);
        #: durable serving state (the job journal) lives beside it.
        self.cache_dir = Path(base_cache.directory) if base_cache.enabled else None

        self.workers: list[PoolWorker] = []
        #: Per-worker construction recipes, kept so supervision can respawn a
        #: poisoned worker's session identically (same backend, cache
        #: namespace and measurement policy) via :meth:`revive_worker`.
        self._blueprints: list[dict] = []
        for index, backend in enumerate(pool_config.backends):
            simulator = resolve_backend(backend)
            worker_cache = base_cache
            if base_cache.enabled:
                worker_cache = dataclasses.replace(
                    base_cache,
                    directory=Path(base_cache.directory) / self._namespace(simulator.config.name),
                )
            policy = dataclasses.replace(
                base_measurement,
                memoize=True,
                shared_memo=self.shared_memo,
                memo_owner=f"w{index}:{simulator.config.name}",
            )
            self._blueprints.append(
                {
                    "backend": backend,
                    "config": config,
                    "measurement": policy,
                    "cache": worker_cache,
                }
            )
            session = Session(
                gpu=simulator, config=config, measurement=policy, cache=worker_cache
            )
            self.workers.append(PoolWorker(index, session))
        self._closed = False
        self._queue = None
        _LOG.info(
            "pool up: %d workers (%s)",
            len(self.workers),
            ", ".join(worker.name for worker in self.workers),
        )

    @classmethod
    def for_scenarios(
        cls,
        scenarios: "Iterable[object]",
        **kwargs,
    ) -> "SessionPool":
        """A pool whose workers cover every backend the scenarios target.

        ``scenarios`` is any iterable of :class:`repro.scenarios.Scenario`
        (or anything with a ``backend`` attribute); one worker is created per
        distinct backend, in first-appearance order.  Scenario-specific
        measurement regimes / optimization presets are *not* derived here —
        a pool's workers share one :class:`MeasurementPolicy` and
        :class:`OptimizationConfig`, so callers (e.g. the
        ``repro.scenarios.run`` suite runner) group scenarios by regime and
        preset and build one pool per group, passing that group's
        ``config=``/``measurement=`` through ``kwargs``.
        """
        backends: list[str] = []
        for scenario in scenarios:
            name = backend_spec(scenario.backend).name  # type: ignore[attr-defined]
            if name not in backends:
                backends.append(name)
        if not backends:
            raise ValueError("for_scenarios needs at least one scenario")
        return cls(backends=backends, **kwargs)

    @staticmethod
    def _namespace(backend_name: str) -> str:
        """Filesystem-safe per-backend cache namespace (§4.2 keys stay per-GPU)."""
        from repro.core.jit import _sanitize_token

        return _sanitize_token(backend_name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the serve queue and every worker session down.  Idempotent.

        A worker whose ``close()`` raises must not leak its siblings: every
        worker is still closed and the shared memo cleared, then the first
        error is re-raised.
        """
        if self._closed:
            return
        self._closed = True
        first_error: BaseException | None = None
        try:
            if self._queue is not None:
                try:
                    self._queue.close()
                except Exception as exc:  # pragma: no cover - defensive
                    first_error = exc
            for worker in self.workers:
                try:
                    worker.session.close()
                except Exception as exc:
                    _LOG.warning("closing %s failed: %s", worker.name, exc)
                    if first_error is None:
                        first_error = exc
        finally:
            self.shared_memo.clear()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "SessionPool":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise OptimizationError("session pool is closed")

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    # Worker lookup / deploy routing
    # ------------------------------------------------------------------
    def worker_for(self, backend: str) -> PoolWorker:
        """The first worker targeting ``backend`` (canonical name or alias)."""
        self._ensure_open()
        canonical = backend_spec(backend).name
        for worker in self.workers:
            if worker.backend == canonical:
                return worker
        raise KeyError(
            f"no pool worker targets backend {canonical!r}; "
            f"workers: {[worker.name for worker in self.workers]}"
        )

    def revive_worker(self, index: int, *, error: str | None = None) -> PoolWorker:
        """Respawn worker ``index``'s session in place after a crash.

        The old session is closed best-effort (a poisoned session may refuse
        even that), a fresh :class:`Session` is built from the worker's
        construction blueprint — same backend, cache namespace and
        measurement policy — and the worker is marked healthy again with its
        ``restarts`` counter bumped.  The :class:`PoolWorker` object itself
        is reused so queue threads holding references see the revival
        without re-resolving anything.
        """
        self._ensure_open()
        if not 0 <= index < len(self.workers):
            raise ValueError(f"worker index {index} out of range")
        worker = self.workers[index]
        blueprint = self._blueprints[index]
        try:
            worker.session.close()
        except Exception as exc:  # noqa: BLE001 - the session is already poisoned
            _LOG.debug("closing poisoned session of %s failed: %s", worker.name, exc)
        worker.session = Session(
            gpu=resolve_backend(blueprint["backend"]),
            config=blueprint["config"],
            measurement=blueprint["measurement"],
            cache=blueprint["cache"],
        )
        worker.restarts += 1
        worker.healthy = True
        worker.last_error = error
        _LOG.warning(
            "worker %s revived (restart #%d)%s",
            worker.name, worker.restarts,
            f" after: {error}" if error else "",
        )
        return worker

    def health(self) -> dict:
        """JSON-able supervision snapshot: per-worker liveness and restarts."""
        return {
            "healthy_workers": sum(1 for worker in self.workers if worker.healthy),
            "total_workers": len(self.workers),
            "restarts": sum(worker.restarts for worker in self.workers),
            "workers": [
                {
                    "worker": worker.name,
                    "healthy": worker.healthy,
                    "restarts": worker.restarts,
                    "last_error": worker.last_error,
                }
                for worker in self.workers
            ],
        }

    def deploy(self, spec, *, backend: str, shapes: dict | None = None):
        """Deploy-time lookup (§4.2) routed to the worker of ``backend``."""
        self._ensure_open()
        return self.worker_for(backend).session.deploy(spec, shapes=shapes)

    def snapshot(self) -> dict:
        """Live, JSON-able pool state: per-worker utilization and health
        (the ``pool`` slice of the remote front door's ``/metrics``)."""
        return {
            "closed": self._closed,
            "workers": [worker.stats() for worker in self.workers],
        }

    # ------------------------------------------------------------------
    # Serving front door
    # ------------------------------------------------------------------
    def serve(
        self,
        serve: ServeConfig | None = None,
        *,
        journal=None,
        faults=None,
    ):
        """The pool's async :class:`repro.serve.JobQueue` front door.

        Created on first use (with ``serve`` shaping it) and cached — one
        *live* queue per pool, shared by every later ``serve()`` call and by
        the :meth:`optimize_many` compatibility wrapper; ``close()`` tears it
        down with the pool.  A queue the caller closed is replaced by a fresh
        one (worker sessions survive a queue teardown), so closing a queue
        never bricks the pool.  Passing a *different* ``ServeConfig`` while
        a live queue exists is an error.

        ``journal`` (a :class:`repro.remote.JobJournal`) makes the queue's
        state durable and restores what it holds; ``faults`` injects a
        chaos-testing :class:`repro.faults.FaultPlan`.  Both only take effect
        on the call that creates the queue.
        """
        self._ensure_open()
        from repro.serve.queue import JobQueue

        if self._queue is not None and self._queue.closed:
            self._queue.close()  # join any straggler threads before re-serving
            self._queue = None
        if self._queue is None:
            self._queue = JobQueue(self, serve=serve, journal=journal, faults=faults)
        elif serve is not None and serve != self._queue.serve_config:
            raise OptimizationError(
                "this pool already serves a JobQueue with a different ServeConfig"
            )
        return self._queue

    # ------------------------------------------------------------------
    # Sharded batch optimization (synchronous wrapper over the queue)
    # ------------------------------------------------------------------
    def optimize_many(
        self,
        specs: Iterable[str | KernelSpec],
        *,
        strategy: str | None = None,
        verify: str | bool | None = None,
        store: bool = True,
        on_error: str = "report",
    ) -> PoolReport:
        """Shard the workloads across the pool's workers and run them.

        Job *i* runs on worker *i* mod *N*: the jobs go through the pool's
        serve queue (see :meth:`serve`) pinned to those workers, so the
        assignment is deterministic and each worker runs its shard in input
        order, over the event-driven execution path.  A worker that fails
        *outside* a job (a closed session, an internal error) yields failed
        reports for its jobs instead of poisoning the batch, and every input
        keeps its input-order slot.

        With ``on_error="report"`` (the default) failed jobs come back as
        failed :class:`RunReport`\\ s in their input-order slots; with
        ``"raise"`` every job still runs to completion, then one
        :class:`OptimizationError` is raised carrying the successful reports
        on ``reports`` and the full :class:`PoolReport` on ``pool_report``.
        """
        self._ensure_open()
        if on_error not in ("report", "raise"):
            raise ValueError(f"on_error must be 'report' or 'raise', got {on_error!r}")
        resolved = list(specs)
        names = [spec if isinstance(spec, str) else spec.name for spec in resolved]
        assignment = [position % len(self.workers) for position in range(len(resolved))]

        queue = self.serve()
        started = time.perf_counter()
        snapshots = [worker.snapshot() for worker in self.workers]
        handles = [
            queue.submit(
                spec,
                strategy=strategy,
                verify=verify,
                store=store,
                pin_worker=target,
                use_store=False,  # historical semantics: every call re-runs
            )
            for spec, target in zip(resolved, assignment)
        ]

        slots: list[RunReport | None] = [None] * len(resolved)
        ran_on: list[str] = []
        for position, (handle, target) in enumerate(zip(handles, assignment)):
            try:
                slots[position] = handle.result()
            except JobCancelled:
                slots[position] = self._failed_report(
                    names[position], target, strategy, "JobCancelled: job was cancelled"
                )
            record = handle.record()
            ran_on.append(record.worker or self.workers[target].name)
        # Slot completeness: the old sharded path silently dropped a slot
        # when a worker returned fewer reports than jobs; any gap is now a
        # failed report in its input-order position.
        for position, slot in enumerate(slots):
            if slot is None:  # pragma: no cover - queue guarantees a report
                slots[position] = self._failed_report(
                    names[position],
                    assignment[position],
                    strategy,
                    "OptimizationError: worker produced no report for this job",
                )
        elapsed = time.perf_counter() - started

        result = PoolReport(
            reports=slots,
            assignments=tuple(ran_on),
            workers=[
                worker.report_since(snapshot)
                for worker, snapshot in zip(self.workers, snapshots)
            ],
            elapsed_s=elapsed,
            memo=self.shared_memo.snapshot(),
        )
        _LOG.info(
            "pool run: %d jobs on %d workers in %.2fs (%.1f evals/s, %d failures, "
            "%d cross-worker memo hits)",
            len(result),
            len(set(ran_on)),
            elapsed,
            result.evaluations_per_sec,
            len(result.failures),
            result.memo.get("cross_worker_hits", 0),
        )
        if result.failures and on_error == "raise":
            error = OptimizationError(
                f"{len(result.failures)}/{len(result)} workloads failed: "
                + "; ".join(f"{report.kernel}: {report.error}" for report in result.failures)
            )
            error.reports = result.succeeded
            error.pool_report = result
            raise error
        return result

    def _failed_report(
        self, kernel: str, target: int, strategy: str | None, error: str
    ) -> RunReport:
        worker = self.workers[target]
        return RunReport.from_error(
            kernel=kernel,
            gpu=worker.backend,
            strategy=strategy or worker.session.config.strategy,
            error=error,
        )
