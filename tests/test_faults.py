"""Chaos suite: fault injection, worker supervision, retry and resume.

Exercises the fault-tolerance stack end to end with deterministic
:class:`repro.faults.FaultPlan` schedules: worker crashes are supervised and
respawned, infrastructure failures retry with backoff, journal-append
failures never fail a job, and a hard-killed server resumes its in-flight
jobs from the last journaled checkpoint.
"""

import dataclasses
import json
import threading

import pytest

from repro.api import (
    CacheConfig,
    JobStatus,
    MeasurementPolicy,
    OptimizationConfig,
    RemoteConfig,
    RetryPolicy,
    ServeConfig,
    StrategyOutcome,
    register_strategy,
)
from repro.baselines.search import run_greedy_search
from repro.errors import WorkerCrash, is_infrastructure_failure
from repro.faults import FaultPlan
from repro.pool import SessionPool
from repro.remote import JobJournal, RemoteApp
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

_FAST = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=12, episode_length=8,
    autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)
#: Fast-backoff retry policy so crash/retry round-trips stay test-sized.
_RETRY = ServeConfig(
    retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01)
)

#: Cross-thread signals for the checkpoint-then-block test strategy.
_GATE = threading.Event()
_STARTED = threading.Event()
_RESUMED: list[dict] = []


@pytest.fixture(autouse=True)
def _reset_strategy_signals():
    _GATE.clear()
    _STARTED.clear()
    _RESUMED.clear()
    yield
    _GATE.set()  # never leave a worker thread stuck on the gate


@register_strategy("chaos-checkpoint")
class _CheckpointThenBlock:
    """Exports one checkpoint, signals, then blocks until the gate opens.

    When its own checkpoint comes back as ``resume_state`` (i.e. a restarted
    server handed the journaled snapshot to the re-queued job) it records the
    state and finishes immediately — the minimal observable proof that a job
    resumed *from the checkpoint* rather than from scratch.
    """

    name = "chaos-checkpoint"

    def run(self, context):
        state = context.policy.resume_state
        if isinstance(state, dict) and state.get("strategy") == self.name:
            _RESUMED.append(dict(state))
            return self._outcome(context)
        if context.policy.save_state is not None:
            context.policy.save_state({"strategy": self.name, "marker": 17})
        _STARTED.set()
        assert _GATE.wait(timeout=30), "test never opened the gate"
        return self._outcome(context)

    @staticmethod
    def _outcome(context):
        return StrategyOutcome(
            strategy="chaos-checkpoint",
            baseline_time_ms=1.0,
            best_time_ms=1.0,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


def _pool(config=_FAST):
    return SessionPool(["A100-sim"], config=config, cache=_NO_CACHE)


def _hard_kill(app):
    """Tear an app down as a SIGKILL would: no terminal or compaction lines.

    The journal is detached and closed *before* the queue shuts down, so the
    journal keeps the jobs' ``submitted``/``checkpoint`` entries but never
    sees their (post-kill) terminal records — exactly the on-disk state a
    killed server process leaves behind.
    """
    journal = app.journal
    app.journal = None
    app.queue.journal = None
    journal.close()
    _GATE.set()  # let any strategy blocked on the gate unwind
    app.close()


# ---------------------------------------------------------------------------
# FaultPlan unit behavior
# ---------------------------------------------------------------------------
def test_fault_plan_crash_fires_once_at_exact_tick():
    plan = FaultPlan(seed=3).crash_worker(0, after_evals=3)
    plan.on_measurement(worker=0, job_id="j1")
    plan.on_measurement(worker=1, job_id="j2")  # other worker: separate counter
    plan.on_measurement(worker=0, job_id="j1")
    with pytest.raises(WorkerCrash) as excinfo:
        plan.on_measurement(worker=0, job_id="j1")
    assert is_infrastructure_failure(excinfo.value)
    plan.on_measurement(worker=0, job_id="j1")  # times=1: never fires again
    assert [entry["fault"] for entry in plan.fired] == ["worker-crash"]
    assert plan.fired[0]["at_eval"] == 3


def test_fault_plan_journal_and_stream_faults():
    plan = FaultPlan().fail_journal_append(at_append=2).drop_stream(after_events=2)
    plan.on_journal_append({"kind": "submitted"})
    with pytest.raises(OSError):
        plan.on_journal_append({"kind": "checkpoint"})
    plan.on_journal_append({"kind": "terminal"})  # fails at most `times` times
    assert plan.on_event_write(job_id="j1", index=1) is False
    assert plan.on_event_write(job_id="j1", index=2) is True
    assert plan.on_event_write(job_id="j1", index=3) is False  # times exhausted
    snapshot = json.loads(json.dumps(plan.snapshot()))  # /metrics payload
    assert snapshot["journal_appends_seen"] == 3
    assert [entry["fault"] for entry in snapshot["fired"]] == [
        "journal-append-failure", "stream-drop",
    ]


def test_fault_plan_is_deterministic():
    def drive(plan):
        for _ in range(4):
            try:
                plan.on_measurement(worker=0)
            except WorkerCrash:
                pass
        for index in (1, 2):
            plan.on_event_write(index=index)
        return plan.fired

    def build():
        return FaultPlan(seed=9).crash_worker(after_evals=2).drop_stream(after_events=2)

    first, second = drive(build()), drive(build())
    assert first == second
    assert [entry["fault"] for entry in first] == ["worker-crash", "stream-drop"]


# ---------------------------------------------------------------------------
# Supervision + retry through the serving queue
# ---------------------------------------------------------------------------
def test_worker_crash_is_supervised_and_job_retried():
    plan = FaultPlan(seed=7).crash_worker(0, after_evals=3)
    with _pool() as pool:
        with pool.serve(_RETRY, faults=plan) as queue:
            handle = queue.submit("bmm")
            report = handle.result(timeout=300)
            assert not report.failed
            record = handle.record()
            assert record.status is JobStatus.DONE
            assert record.attempt == 1  # one retry after the injected crash
            retrying = [e for e in handle.events() if e.kind == "retrying"]
            assert len(retrying) == 1 and retrying[0].attempt == 1
            assert "WorkerCrash" in retrying[0].detail
            assert queue.stats["retries"] == 1
            assert queue.stats["worker_failures"] == 1
        assert pool.workers[0].restarts == 1
        assert pool.workers[0].healthy
        health = pool.health()
        assert health["healthy_workers"] == 1 and health["restarts"] == 1
    assert [entry["fault"] for entry in plan.fired] == ["worker-crash"]


def test_retry_exhaustion_surfaces_failed_report():
    # after_evals=1 with a deep `times` pool: every attempt crashes on its
    # first measurement tick until the retry policy gives up.
    plan = FaultPlan().crash_worker(0, after_evals=1, times=10)
    with _pool() as pool:
        with pool.serve(_RETRY, faults=plan) as queue:
            handle = queue.submit("softmax")
            report = handle.result(timeout=300)
            assert report.failed and "WorkerCrash" in (report.error or "")
            record = handle.record()
            assert record.status is JobStatus.FAILED
            assert record.attempt == _RETRY.retry.max_attempts - 1
            assert queue.stats["retries"] == 2
            assert queue.stats["worker_failures"] == 3
        assert pool.workers[0].restarts == 3  # every crash respawned the session


def _job_in_backoff(pool, before):
    """Submit a job whose first run crashes and whose retry waits 30 s; return
    its queue and handle once the ``retrying`` event is out, and the names of
    the threads started since ``before``."""
    plan = FaultPlan().crash_worker(0, after_evals=1)
    serve = ServeConfig(retry=RetryPolicy(max_attempts=2, backoff_base_s=30.0))
    queue = pool.serve(serve, faults=plan)
    handle = queue.submit("softmax")
    retrying = next(event for event in handle.subscribe() if event.kind == "retrying")
    assert retrying.attempt == 1 and handle.status is JobStatus.QUEUED
    started = {thread.name for thread in threading.enumerate() if thread not in before}
    return queue, handle, started


def test_retry_backoff_waits_in_the_pending_queue():
    """A job in backoff waits in the one pending deque: no thread of its
    own, and it counts as pending."""
    with _pool() as pool:
        queue, handle, started = _job_in_backoff(pool, set(threading.enumerate()))
        with queue:
            assert started == {f"serve-{worker.name}" for worker in pool.workers}
            assert queue.metrics()["queue"]["pending"] == 1


def test_cancel_during_backoff_ends_the_job_at_once():
    with _pool() as pool:
        queue, handle, _started = _job_in_backoff(pool, set(threading.enumerate()))
        with queue:
            assert handle.cancel()
            assert handle.done() and handle.status is JobStatus.CANCELLED
            assert queue.metrics()["queue"]["pending"] == 0


def test_user_errors_are_not_retried():
    with _pool() as pool:
        with pool.serve(_RETRY) as queue:
            handle = queue.submit("no-such-kernel")
            report = handle.result(timeout=300)
            assert report.failed
            record = handle.record()
            assert record.status is JobStatus.FAILED
            assert record.attempt == 0  # deterministic failure: no retry spent
            assert queue.stats["retries"] == 0
            assert queue.stats["worker_failures"] == 0
        assert pool.workers[0].restarts == 0


def test_crash_without_retry_policy_fails_job_but_heals_worker():
    plan = FaultPlan().crash_worker(0, after_evals=2)
    with _pool() as pool:
        with pool.serve(faults=plan) as queue:
            first = queue.submit("bmm").result(timeout=300)
            assert first.failed and "WorkerCrash" in (first.error or "")
            # Supervision is independent of retry: the next job lands on the
            # respawned session and succeeds.
            second = queue.submit("bmm").result(timeout=300)
            assert not second.failed
            assert queue.stats["worker_failures"] == 1
        assert pool.workers[0].restarts == 1


# ---------------------------------------------------------------------------
# Journal-append failures are survived
# ---------------------------------------------------------------------------
def test_journal_append_failure_is_survived(tmp_path):
    plan = FaultPlan().fail_journal_append(at_append=2)
    journal = JobJournal(tmp_path / "j.jsonl", faults=plan)
    with _pool() as pool:
        with pool.serve(journal=journal) as queue:
            report = queue.submit("softmax").result(timeout=300)
            assert not report.failed  # durability is best-effort, never fatal
    assert journal.append_failures == 1
    assert journal.stats()["append_failures"] == 1
    assert [entry["fault"] for entry in plan.fired] == ["journal-append-failure"]
    journal.close()
    # The surviving lines still replay cleanly.
    replay = JobJournal(tmp_path / "j.jsonl").replay()
    assert replay.skipped == 0
    assert "j00001" in replay.records


# ---------------------------------------------------------------------------
# Checkpoint/resume at the search level (budget honored across the cut)
# ---------------------------------------------------------------------------
def test_greedy_search_resumes_from_saved_state():
    compiled = compile_spec(get_spec("bmm"), scale="test")
    states: list[dict] = []
    budget = 24
    full = run_greedy_search(
        compiled, budget=budget, episode_length=8,
        policy=MeasurementPolicy(save_state=states.append),
    )
    assert states, "greedy exported no checkpoint despite committing moves"
    snapshot = states[0]
    assert snapshot["strategy"] == "greedy" and snapshot["swaps"]

    resumed = run_greedy_search(
        compiled, budget=budget, episode_length=8,
        policy=MeasurementPolicy(resume_state=snapshot),
    )
    # The restore re-measurement costs one tick; everything else continues
    # against the original budget instead of starting a fresh one.
    assert resumed.resumed_from == snapshot["evaluations"] + 1
    assert resumed.evaluations <= budget + 1
    assert resumed.best_time_ms <= full.baseline_time_ms + 1e-9


def test_incompatible_resume_state_starts_fresh():
    compiled = compile_spec(get_spec("bmm"), scale="test")
    result = run_greedy_search(
        compiled, budget=6, episode_length=8,
        policy=MeasurementPolicy(resume_state={"strategy": "random", "evaluations": 3}),
    )
    assert result.resumed_from == 0  # foreign checkpoint ignored, not applied
    assert result.evaluations <= 6


# ---------------------------------------------------------------------------
# E2E resilience proof: seeded plan, crash + journal fault + kill mid-batch
# ---------------------------------------------------------------------------
def test_e2e_seeded_fault_plan_resilience(tmp_path):
    """The acceptance scenario: one seeded FaultPlan injects a worker crash
    and a journal-append failure while a batch runs, then the server is
    hard-killed mid-batch.  Every job must reach a verifier-clean terminal
    state, nothing is lost or double-counted against the search budget, and
    at least one job demonstrably resumes from its journaled checkpoint."""
    path = tmp_path / "j.jsonl"
    plan = (
        FaultPlan(seed=1234)
        .crash_worker(after_evals=4)
        .fail_journal_append(at_append=4)
    )
    config = dataclasses.replace(_FAST, verify=True)
    serve = ServeConfig(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01))
    remote = RemoteConfig(journal_path=path)

    with SessionPool(["A100-sim"], config=config, cache=_NO_CACHE) as pool:
        app = RemoteApp(pool, serve=serve, remote=remote, faults=plan)
        # Single worker, three jobs.  The plan crashes the worker inside the
        # first job's opening probe batch (measurement tick 4); the other two
        # stay queued ahead of the crashed job's backoff retry, which joins
        # the back of the queue, so by the time the victim signals, the
        # second job is done (its store line was journal append 4 — the
        # injected append failure) and the crashed job is still waiting
        # behind the victim.  Killing the
        # server there leaves one job done, one mid-retry and one
        # checkpointed mid-flight: a genuine mid-batch kill.
        crashed = app.submit({"kernel": "bmm"}).job_id
        finished = app.submit({"kernel": "rmsnorm"}).job_id
        victim = app.submit({"kernel": "softmax", "strategy": "chaos-checkpoint"}).job_id

        assert _STARTED.wait(timeout=60)  # victim is running and checkpointed
        fired = [entry["fault"] for entry in plan.fired]
        assert "worker-crash" in fired and "journal-append-failure" in fired
        assert app.queue.stats["retries"] >= 1
        assert app.metrics()["faults"]["seed"] == 1234
        assert app.status(finished).status is JobStatus.DONE
        _hard_kill(app)

        with RemoteApp(pool, serve=serve, remote=remote) as revived:
            final, report = revived.result(victim, timeout=300)
            assert final.status is JobStatus.DONE and final.resumed is True
            assert report is not None and not report.failed
            # The strategy saw its own journaled checkpoint, not a fresh start.
            assert _RESUMED and _RESUMED[0]["marker"] == 17

            record, searched = revived.result(crashed, timeout=300)
            assert record.status is JobStatus.DONE and record.resumed is True
            assert searched is not None and not searched.failed
            assert searched.verified is not False  # verifier-clean completion
            # Budget honored across crash, retry and restart: the resumed
            # search finishes within the original budget (+1 for a
            # checkpoint-restore re-measurement), it does not start a new one.
            assert searched.evaluations <= config.search_budget + 1

            replayed, done_report = revived.result(finished, timeout=30)
            assert replayed.status is JobStatus.DONE and replayed.replayed
            assert done_report is not None and done_report.verified is not False

            revived.queue.join(timeout=300)
            records = {entry.job_id: entry for entry in revived.jobs()}
            for job_id in (crashed, finished, victim):
                assert job_id in records, f"job {job_id} was silently lost"
                assert records[job_id].status.terminal
            assert revived.metrics()["server"]["resumed_jobs"] == 2
