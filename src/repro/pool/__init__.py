"""Sharded multi-backend optimization: the ``SessionPool`` subsystem.

Scale the single-``Session`` workflow out to many workers:

* :class:`SessionPool` — N worker sessions (one per configured backend name,
  duplicates allowed); ``optimize_many`` runs job *i* on worker *i* mod *N*
  and gathers the reports into one :class:`~repro.api.report.PoolReport`.
* :class:`SharedMemoTable` — cross-session measurement memoization, so a
  schedule measured by one worker is a hit for all siblings (defined in
  :mod:`repro.sim.measure_service`, which serves private memo tables too).

The async serving front door over the pool — job handles, progress events,
cancellation, one shared job queue, result store — lives in
:mod:`repro.serve`; ``SessionPool.serve()`` is the entry point.
"""

from repro.api.config import PoolConfig
from repro.api.report import PoolReport, WorkerReport
from repro.pool.pool import PoolWorker, SessionPool
from repro.sim.measure_service import SharedMemoStats, SharedMemoTable

__all__ = [
    "SessionPool",
    "PoolWorker",
    "PoolConfig",
    "PoolReport",
    "WorkerReport",
    "SharedMemoTable",
    "SharedMemoStats",
]
