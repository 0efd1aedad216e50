"""Workload schedulers: how a :class:`SessionPool` shards jobs across workers.

Schedulers live in :data:`SCHEDULERS`, a :class:`repro.utils.registry.Registry`
like every other axis, so ``PoolConfig(scheduler="least_loaded")`` is the only
change needed to swap the sharding policy — and downstream code can register
custom policies (locality-aware, cost-model-driven, ...) without touching it.

A scheduler sees the jobs of one ``optimize_many`` call plus a view of every
worker (including the load it is already carrying from earlier calls) and
returns one worker index per job.  Assignment is deterministic: for a fixed
pool state and workload, the same jobs land on the same workers, which keeps
pool runs reproducible measurement-for-measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.utils.registry import Registry


@dataclass(frozen=True)
class PoolJob:
    """One schedulable unit of an ``optimize_many`` workload."""

    #: Input-order position of the job; reports come back in this order.
    index: int
    #: Workload name (kernel spec name), for logging and cost hints.
    name: str
    #: Relative cost estimate; ``least_loaded`` packs by this.
    cost: float = 1.0


@runtime_checkable
class WorkerView(Protocol):
    """What a scheduler may observe about a worker."""

    name: str
    backend: str
    #: Outstanding cost on this worker: assigned (queued or running) jobs
    #: whose completion has not yet settled them.  An idle worker sits at 0.
    backlog: float


@runtime_checkable
class PoolScheduler(Protocol):
    """A sharding policy pluggable into a :class:`SessionPool`."""

    name: str

    def assign(
        self, jobs: Sequence[PoolJob], workers: Sequence[WorkerView]
    ) -> list[int]:  # pragma: no cover - protocol
        """One worker index per job, in job order."""
        ...


SCHEDULERS: Registry[PoolScheduler] = Registry("pool scheduler")


def register_scheduler(name: str):
    """Class decorator: instantiate the scheduler dataclass and register it."""

    def decorator(cls):
        SCHEDULERS.add(name, cls())
        return cls

    return decorator


get_scheduler = SCHEDULERS.get
available_schedulers = SCHEDULERS.names


# ---------------------------------------------------------------------------
# Built-in schedulers
# ---------------------------------------------------------------------------
@register_scheduler("round_robin")
@dataclass(frozen=True)
class RoundRobinScheduler:
    """Jobs cycle through the workers in input order, ignoring load.

    The right default when jobs are roughly uniform: assignment depends only
    on job position, so it is trivially reproducible across runs and pools.
    """

    name: str = "round_robin"

    def assign(self, jobs: Sequence[PoolJob], workers: Sequence[WorkerView]) -> list[int]:
        return [position % len(workers) for position in range(len(jobs))]


@register_scheduler("least_loaded")
@dataclass(frozen=True)
class LeastLoadedScheduler:
    """Greedy balancing: each job goes to the worker with the least total load.

    Load is the worker's outstanding backlog (jobs still queued or running —
    completed jobs have settled theirs) plus what this call has assigned so
    far, so heterogeneous job costs and concurrent batches both even out.
    Ties break toward the lowest worker index, keeping the assignment
    deterministic.
    """

    name: str = "least_loaded"

    def assign(self, jobs: Sequence[PoolJob], workers: Sequence[WorkerView]) -> list[int]:
        load = [float(worker.backlog) for worker in workers]
        assignment = []
        for job in jobs:
            target = min(range(len(load)), key=lambda index: (load[index], index))
            load[target] += job.cost
            assignment.append(target)
        return assignment
