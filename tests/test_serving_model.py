"""Model-based test of the serving core: one state machine over a journaled queue.

Hypothesis drives a :class:`~repro.serve.JobQueue` over an A100/A100/A30
pool through random runs of the serving verbs: submit a free, backend-bound
or pinned job; cancel one; crash a worker through a
:class:`~repro.faults.FaultPlan`; evict every terminal record (``gc``) and
compact the journal, or compact it alone; re-submit a finished
``(kernel, backend)`` key, which must be a result-store hit; and restart
(close the queue, boot a new one on the same journal and submit to it).
Jobs run an instant strategy that ticks the measurement checkpoint once,
where cancellation and planned crashes fire.

A plain-dict model keeps what each job id should be.  Whenever the queue
drains, every job must have exactly one terminal event and an outcome the
model allows, and nothing may stay pending.  No id may be minted twice,
across restarts too, and after a restart every record the journal kept
must equal the model's, marked ``replayed``.
"""

import dataclasses
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.api import (
    CacheConfig,
    JobStatus,
    OptimizationConfig,
    RetryPolicy,
    ServeConfig,
    StrategyOutcome,
    register_strategy,
)
from repro.faults import FaultPlan
from repro.pool import SessionPool
from repro.remote import JobJournal

_BACKENDS = ("A100-sim", "A100-sim", "A30-sim")
_KERNELS = ("softmax", "rmsnorm")
_TTL_S = 3600.0
_SERVE = ServeConfig(job_ttl_s=_TTL_S, retry=RetryPolicy(backoff_base_s=0.001))
_CONFIG = OptimizationConfig(
    strategy="model-instant", scale="test", autotune=False, verify=False
)


@register_strategy("model-instant")
class _Instant:
    """Ticks the measurement checkpoint once, then returns the seed."""

    name = "model-instant"

    def run(self, context):
        context.policy.checkpoint()  # a cancel or a planned crash fires here
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=1.0,
            best_time_ms=1.0,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


class ServingModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "journal.jsonl"
        self.pool = SessionPool(list(_BACKENDS), config=_CONFIG, cache=CacheConfig(enabled=False))
        self.plan = FaultPlan()
        self.journal = JobJournal(self.path)
        self.queue = self.pool.serve(_SERVE, journal=self.journal, faults=self.plan)
        self.workers = {worker.name: worker for worker in self.pool.workers}
        #: The model: what every id ever minted should be.  ``pin`` and
        #: ``backend`` bound the worker, ``store_hit`` says a DONE outcome
        #: must come from the result store, ``may_cancel`` whether CANCELLED
        #: is allowed, ``record`` the record it settled with.
        self.model: dict[str, dict] = {}
        #: Ids the queue holds now, and ids whose entries the journal holds.
        self.live: list[str] = []
        self.journaled: set[str] = set()
        #: ``(kernel, backend)`` keys of jobs that ran and finished DONE.
        self.stored: set[tuple[str, str]] = set()

    # -- rules ----------------------------------------------------------
    @rule(
        kind=st.sampled_from(("free", "backend", "pin")),
        kernel=st.sampled_from(_KERNELS),
        index=st.integers(0, len(_BACKENDS) - 1),
    )
    def submit(self, kind, kernel, index):
        handle = self.queue.submit(
            kernel,
            backend=_BACKENDS[index] if kind == "backend" else None,
            pin_worker=index if kind == "pin" else None,
            use_store=False,
        )
        self._minted(
            handle.job_id,
            pin=index if kind == "pin" else None,
            backend=self.pool.workers[index].backend if kind == "backend" else None,
            store_hit=False,
        )

    # Outcomes depend on thread timing, and so do the finished keys and,
    # through re-submits, the live ids: no precondition reads them, or
    # hypothesis would draw differently on a replay.  Rules idle instead.
    @rule(pick=st.integers(0, 63))
    def resubmit_finished_key(self, pick):
        if not self.stored:
            return
        kernel, backend = sorted(self.stored)[pick % len(self.stored)]
        handle = self.queue.submit(kernel, backend=backend)
        self._minted(handle.job_id, pin=None, backend=backend, store_hit=True)

    @rule(pick=st.integers(0, 63))
    def cancel(self, pick):
        if not self.live:
            return
        job_id = self.live[pick % len(self.live)]
        handle = self.queue.handle(job_id)
        if handle.cancel():
            self.model[job_id]["may_cancel"] = True
        else:
            assert handle.done(), f"{job_id}: cancel refused a job that is not terminal"

    @rule(worker=st.integers(0, len(_BACKENDS) - 1))
    def crash_worker(self, worker):
        # Fires at the worker's next measurement tick: its job retries.
        self.plan.crash_worker(worker, after_evals=1)

    @rule()
    def gc_and_compact(self):
        """Evict every terminal record, then drop them from the journal."""
        self._settle()
        evicted = self.queue.gc(now=time.time() + 2 * _TTL_S)
        assert evicted == len(self.live)
        assert self.queue.jobs() == []
        self.live = []
        self.compact()

    @rule()
    def compact(self):
        self.queue.compact()
        self.journaled = set(self.live)

    @rule()
    def restart(self):
        for job_id in self.live:
            if not self.queue.handle(job_id).done():
                self.model[job_id]["may_cancel"] = True  # close() cancels it
        self.queue.close()
        self.journal.close()
        self._settle()
        self.journal = JobJournal(self.path)
        self.queue = self.pool.serve(_SERVE, journal=self.journal, faults=self.plan)
        records = {record.job_id: record for record in self.queue.jobs()}
        assert set(records) == self.journaled
        for job_id, record in records.items():
            assert record == dataclasses.replace(self.model[job_id]["record"], replayed=True)
        self.live = list(records)
        self._settle()
        self.submit("free", _KERNELS[0], 0)  # the restarted queue mints at once

    # -- checks ---------------------------------------------------------
    def _minted(self, job_id, **expected):
        assert job_id not in self.model, f"job id {job_id} minted twice"
        self.model[job_id] = {**expected, "may_cancel": False, "record": None}
        self.live.append(job_id)
        self.journaled.add(job_id)

    def _settle(self):
        """Wait for the queue to drain, then hold every live job to the model."""
        if not self.queue.closed:
            self.queue.join(timeout=60)
        counts = self.queue.metrics()["queue"]
        assert counts["pending"] == 0 and counts["active"] == 0
        records = {record.job_id: record for record in self.queue.jobs()}
        assert list(records) == self.live
        for job_id, record in records.items():
            self._check(self.model[job_id], record, self.queue.handle(job_id).events())

    def _check(self, expected, record, events):
        terminal = [event for event in events if event.terminal]
        assert len(terminal) == 1 and events[-1] is terminal[0], (record, events)
        assert terminal[0].kind == record.status.value
        if expected["record"] is not None:  # settled before: it may not move
            assert record == dataclasses.replace(expected["record"], replayed=record.replayed)
            return
        status = record.status
        if status is JobStatus.CANCELLED:
            assert expected["may_cancel"], record
        elif status is JobStatus.FAILED:
            assert "WorkerCrash" in (record.error or ""), record
        else:
            assert status is JobStatus.DONE, record
            assert record.from_store is expected["store_hit"], record
        if record.worker is not None:
            worker = self.workers[record.worker]
            assert expected["pin"] in (None, worker.index), record
            assert expected["backend"] in (None, worker.backend), record
        if status is JobStatus.DONE and not record.from_store:
            self.stored.add((record.kernel, self.workers[record.worker].backend))
        expected["record"] = record

    def teardown(self):
        try:
            if not self.queue.closed:
                self._settle()
        finally:
            self.queue.close()
            self.journal.close()
            self.pool.close()
            self.tmp.cleanup()


TestServingModel = ServingModel.TestCase
TestServingModel.settings = settings(
    max_examples=25,
    stateful_step_count=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
