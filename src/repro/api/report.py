"""Structured result objects returned by the :mod:`repro.api` facade."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.utils.serialization import fields_from_json, fields_to_json, to_json_str

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.optimizer import OptimizedKernel


@dataclass(frozen=True)
class RunReport:
    """Outcome of one ``Session.optimize`` run, strategy-independent.

    Every strategy (PPO and the §7 training-free searches) produces the same
    report shape, so callers can sweep ``strategy=`` without branching.  The
    deployable artifact (optimized SASS spliced into the cubin) rides along in
    :attr:`artifact`; :meth:`summary` is the JSON-able projection: every
    field but :attr:`details` and :attr:`artifact`, plus :attr:`speedup`.
    """

    #: Workload name (Table 2).
    kernel: str
    #: GPU backend name the run targeted.
    gpu: str
    #: Strategy that produced the schedule.
    strategy: str
    #: Shapes the kernel was compiled at.
    shapes: dict
    #: Kernel configuration chosen by autotuning (tile sizes, warps).
    config: dict
    #: Runtime of the ``-O3`` schedule (T0 of Eq. 3).
    baseline_time_ms: float
    #: Runtime of the best schedule found.
    best_time_ms: float
    #: Schedule evaluations spent (environment steps / measurements).
    evaluations: int
    #: Verification outcome (every stage of the verify mode must pass; the
    #: run's one verification record); ``None`` when verification was skipped
    #: (``verify="off"``).
    verified: bool | None = None
    #: Structured verifier findings (``Diagnostic.as_dict()`` payloads) from
    #: the verify stages; empty when clean or not verified.
    diagnostics: tuple = ()
    #: Deploy-cache key the artifact was stored under, if cached.
    cache_key: str | None = None
    #: Whether the artifact was written to the session cache.
    cached: bool = False
    #: Strategy-specific extras (PPO ``history``, traced ``moves``, ...).
    details: dict = field(default_factory=dict, repr=False, compare=False)
    #: The deployable :class:`OptimizedKernel`; not part of the summary.
    artifact: "OptimizedKernel | None" = field(default=None, repr=False, compare=False)
    #: ``"ExceptionType: message"`` when the run failed (``optimize_many``
    #: surfaces per-job failures as reports instead of dropping the batch).
    error: str | None = None

    @classmethod
    def from_error(cls, kernel: str, gpu: str, strategy: str, error: str) -> "RunReport":
        """The canonical failed report: one job's error in its result slot.

        Shared by every path that converts an exception into a report —
        ``Session.optimize_many``, the pool wrapper and the serve queue —
        so the failure shape cannot drift between them.
        """
        return cls(
            kernel=kernel,
            gpu=gpu,
            strategy=strategy,
            shapes={},
            config={},
            baseline_time_ms=0.0,
            best_time_ms=0.0,
            evaluations=0,
            error=error,
        )

    @classmethod
    def from_summary(cls, summary: dict) -> "RunReport":
        """Rebuild a report from its :meth:`summary` projection.

        Used by the durable serving layer (:mod:`repro.remote`) to replay
        journaled results across process restarts.  The deployable artifact
        and strategy ``details`` are not part of the summary, so replayed
        reports carry ``artifact=None`` — deploys still resolve through the
        on-disk cubin cache, which persists independently.  ``speedup`` is
        derived from the two times, so its key is ignored.
        """
        return fields_from_json(cls, summary, diagnostics=tuple)

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def speedup(self) -> float:
        return self.baseline_time_ms / self.best_time_ms if self.best_time_ms else 1.0

    def summary(self) -> dict[str, Any]:
        """JSON-able projection of the report."""
        summary = fields_to_json(self, omit=("details", "artifact"))
        summary["speedup"] = self.speedup
        return summary

    def to_json(self) -> str:
        return to_json_str(self.summary())


class JobStatus(str, enum.Enum):
    """Lifecycle of one :class:`repro.serve.JobQueue` job.

    ``queued → assigned → running → done/failed/cancelled``: a job stays
    ``queued`` until a worker takes it (``assigned``).  ``cancelled`` can
    also follow ``queued``/``assigned`` directly when the job is cancelled
    before it runs.  ``rejected`` is terminal from birth:
    admission control (a full pending queue, an exhausted tenant quota)
    refused the submission before it ever queued.
    """

    QUEUED = "queued"
    ASSIGNED = "assigned"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (
            JobStatus.DONE,
            JobStatus.FAILED,
            JobStatus.CANCELLED,
            JobStatus.REJECTED,
        )


@dataclass(frozen=True)
class JobRecord:
    """Point-in-time snapshot of one serving job, JSON-able.

    Returned by :meth:`repro.serve.JobHandle.record` and
    :meth:`repro.serve.JobQueue.status`; the live state keeps moving, the
    record does not.  These fields are a job's observable state.  The
    queue's live job repeats them first, under the same names (a new field
    goes there too); every JSON form, which the journal and the HTTP front
    door carry, derives from them.
    """

    #: Queue-unique job id (``j00042``).
    job_id: str
    #: Workload name (kernel spec name).
    kernel: str
    #: Backend the submission requested, or ``None`` for "any worker".
    backend: str | None
    #: Lifecycle state at snapshot time.
    status: JobStatus
    #: Name of the worker that ran (or is running) the job, if assigned.
    worker: str | None
    #: Quota tokens the remote front door charged the tenant for the job
    #: (1.0 for in-process submissions that do not set it).
    cost: float
    #: The job resolved from the pool-level result store without optimizing.
    from_store: bool = False
    #: Candidate measurements issued so far (streamed ``measured(n)``).
    measured: int = 0
    #: Wall-clock timestamps (``time.time``); unset stages are ``None``.
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    #: ``"ExceptionType: message"`` for failed jobs.
    error: str | None = None
    #: §4.2 cache key of the result, once known.
    cache_key: str | None = None
    #: Tenant the submission was accounted to (remote front door quotas).
    tenant: str | None = None
    #: Verifier rule codes (``V1xx``...) that invalidated a result-store hit
    #: and forced this job to re-optimize; empty otherwise.
    invalidation_rules: tuple = ()
    #: The record was reconstructed from a journal replay after a restart
    #: (the job ran in a previous server process).
    replayed: bool = False
    #: Retries consumed so far: 0 on the first attempt, incremented each time
    #: the queue re-ran the job after an infrastructure failure.
    attempt: int = 0
    #: The job was re-queued after a server restart and resumed from its last
    #: journaled search checkpoint (or restarted fresh when none existed).
    resumed: bool = False

    def as_dict(self) -> dict[str, Any]:
        return fields_to_json(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        """Rebuild a record from its :meth:`as_dict` projection (journal
        replay); keys of retired fields, such as ``stolen``, are ignored."""
        return fields_from_json(cls, payload, status=JobStatus, invalidation_rules=tuple)

    def to_json(self) -> str:
        return to_json_str(self.as_dict())


@dataclass(frozen=True)
class WorkerReport:
    """Per-worker slice of one :class:`PoolReport`."""

    #: Worker name (``w<index>:<backend>``), unique within the pool.
    worker: str
    #: Canonical GPU backend name the worker targets.
    gpu: str
    #: Jobs this worker ran during the pool run.
    jobs: int
    #: Jobs that ended in a failed :class:`RunReport`.
    failures: int
    #: Schedule evaluations this worker spent.
    evaluations: int
    #: Wall-clock the worker was busy running its shard.
    elapsed_s: float

    def as_dict(self) -> dict[str, Any]:
        return fields_to_json(self)


@dataclass(frozen=True)
class PoolReport:
    """Outcome of one :meth:`repro.pool.SessionPool.optimize_many` run.

    Per-job :class:`RunReport`\\ s (including failed ones) come back in input
    order exactly as ``Session.optimize_many`` returns them; the pool adds
    which worker ran each job, per-worker utilization, shared-memo counters
    and pool-level throughput.
    """

    #: Per-job reports, in input order; failed jobs have ``report.failed``.
    reports: list[RunReport]
    #: Worker name that ran each job, in input order.
    assignments: tuple[str, ...]
    #: Per-worker utilization, one entry per pool worker (idle ones included).
    workers: list[WorkerReport]
    #: Wall-clock of the whole pool run.
    elapsed_s: float
    #: Shared-memo snapshot (empty when memo sharing is off).
    memo: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self) -> Iterator[RunReport]:
        return iter(self.reports)

    def __getitem__(self, index: int) -> RunReport:
        return self.reports[index]

    @property
    def failures(self) -> list[RunReport]:
        return [report for report in self.reports if report.failed]

    @property
    def succeeded(self) -> list[RunReport]:
        return [report for report in self.reports if not report.failed]

    @property
    def evaluations(self) -> int:
        """Schedule evaluations spent across all workers."""
        return sum(report.evaluations for report in self.reports)

    @property
    def evaluations_per_sec(self) -> float:
        return self.evaluations / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def jobs_per_sec(self) -> float:
        return len(self.reports) / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def summary(self) -> dict[str, Any]:
        """JSON-able projection: job summaries plus pool-level stats."""
        return {
            "jobs": [report.summary() for report in self.reports],
            "assignments": list(self.assignments),
            "workers": [worker.as_dict() for worker in self.workers],
            "failures": len(self.failures),
            "evaluations": self.evaluations,
            "elapsed_s": self.elapsed_s,
            "evaluations_per_sec": self.evaluations_per_sec,
            "jobs_per_sec": self.jobs_per_sec,
            "memo": dict(self.memo),
        }

    def to_json(self) -> str:
        return to_json_str(self.summary())
