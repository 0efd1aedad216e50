"""Sharded multi-backend optimization: the ``SessionPool`` subsystem.

Scale the single-``Session`` workflow out to many workers:

* :class:`SessionPool` — N worker sessions (one per configured backend name,
  duplicates allowed), sharding ``optimize_many`` workloads through a
  pluggable scheduler into one :class:`~repro.api.report.PoolReport`.
* Scheduler registry — ``"round_robin"`` and ``"least_loaded"`` built in;
  extend with :func:`register_scheduler`.
* :class:`SharedMemoTable` — cross-session measurement memoization, so a
  schedule measured by one worker is a hit for all siblings (defined in
  :mod:`repro.sim.measure_service`, which serves private memo tables too).

The async serving front door over the pool — job handles, progress events,
cancellation, work stealing, result store — lives in :mod:`repro.serve`;
``SessionPool.serve()`` is the entry point.
"""

from repro.api.config import PoolConfig
from repro.api.report import PoolReport, WorkerReport
from repro.pool.pool import PoolWorker, SessionPool
from repro.pool.scheduler import (
    PoolJob,
    PoolScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)
from repro.sim.measure_service import SharedMemoStats, SharedMemoTable

__all__ = [
    "SessionPool",
    "PoolWorker",
    "PoolConfig",
    "PoolReport",
    "WorkerReport",
    "PoolJob",
    "PoolScheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "SharedMemoTable",
    "SharedMemoStats",
]
