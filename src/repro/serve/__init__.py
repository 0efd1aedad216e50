"""Serving front door: async job queue, progress events, result store.

The ROADMAP's next scale step after :class:`repro.pool.SessionPool`:
instead of blocking on whole synchronous batches, callers ``submit()``
workloads and get :class:`JobHandle`\\ s back immediately —
``result(timeout=)``, ``cancel()``, ``done()``, ``status`` — while every
pool worker takes the oldest pending job it may run from one shared queue,
every job streams :class:`ProgressEvent`\\ s
(``queued → assigned → running → measured(n) → done/failed/cancelled``)
and finished results persist in a pool-level :class:`ResultStore` keyed by
the §4.2 cache key.

Entry point: ``SessionPool.serve()`` (one queue per pool) or
``JobQueue(pool, serve=ServeConfig(...))`` directly.
"""

from repro.api.config import ServeConfig
from repro.api.report import JobRecord, JobStatus
from repro.api.session import SessionHooks
from repro.errors import AdmissionError, JobCancelled
from repro.serve.events import TERMINAL_KINDS, EventBus, EventSubscription, ProgressEvent
from repro.serve.queue import JobHandle, JobQueue
from repro.serve.store import ResultStore, ResultStoreStats

__all__ = [
    "JobQueue",
    "JobHandle",
    "JobStatus",
    "JobRecord",
    "JobCancelled",
    "AdmissionError",
    "ServeConfig",
    "TERMINAL_KINDS",
    "SessionHooks",
    "ProgressEvent",
    "EventBus",
    "EventSubscription",
    "ResultStore",
    "ResultStoreStats",
]
