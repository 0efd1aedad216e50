"""Tests for the serving front door: JobQueue, handles, events, store, hooks."""

import random
import sys
import threading
import time

import pytest

from repro.api import (
    CacheConfig,
    JobStatus,
    OptimizationConfig,
    ServeConfig,
    Session,
    SessionHooks,
    StrategyOutcome,
    backend_spec,
    register_strategy,
)
from repro.errors import JobCancelled, OptimizationError
from repro.pool import SessionPool
from repro.serve import TERMINAL_KINDS, JobQueue, ResultStore

_FAST = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=12, episode_length=8,
    autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)

#: Cross-thread signals for the blocking/cancellable test strategies.
_GATE = threading.Event()
_STARTED = threading.Event()
#: Released once by every ``serve-hold`` job as it starts.
_HOLDING = threading.Semaphore(0)


@pytest.fixture(autouse=True)
def _reset_strategy_signals():
    _GATE.clear()
    _STARTED.clear()
    yield
    _GATE.set()  # never leave a worker thread stuck on the gate


def _trivial_outcome(name, context) -> StrategyOutcome:
    return StrategyOutcome(
        strategy=name,
        baseline_time_ms=1.0,
        best_time_ms=1.0,
        best_kernel=context.compiled.kernel,
        evaluations=1,
    )


@register_strategy("serve-block")
class _BlockUntilGate:
    """Signals it started, then blocks until the test opens the gate."""

    name = "serve-block"

    def run(self, context):
        _STARTED.set()
        assert _GATE.wait(timeout=30), "test never opened the gate"
        return _trivial_outcome(self.name, context)


@register_strategy("serve-hold")
class _HoldUntilGate:
    """Counts itself in, then blocks until the test opens the gate."""

    name = "serve-hold"

    def run(self, context):
        _HOLDING.release()
        assert _GATE.wait(timeout=30), "test never opened the gate"
        return _trivial_outcome(self.name, context)


@register_strategy("serve-instant")
class _Instant:
    """Finishes at once: the queue, not the search, is under test."""

    name = "serve-instant"

    def run(self, context):
        return _trivial_outcome(self.name, context)


@register_strategy("serve-checkpointed")
class _SpinOnCheckpoint:
    """Polls the session-installed cancellation checkpoint, like a search
    polls the measurement service between candidate batches."""

    name = "serve-checkpointed"

    def run(self, context):
        _STARTED.set()
        checkpoint = context.policy.checkpoint
        assert checkpoint is not None, "serve layer should install a checkpoint"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            checkpoint()  # raises JobCancelled once the job is cancelled
            time.sleep(0.002)
        raise AssertionError("job was never cancelled")


def _single_worker_pool():
    return SessionPool(["A100-sim"], config=_FAST, cache=_NO_CACHE)


# ---------------------------------------------------------------------------
# Submission and handles
# ---------------------------------------------------------------------------
def test_submit_returns_before_optimization_starts():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.submit("softmax", strategy="serve-block")
        # submit() came back while the job is still queued/starting.
        assert not handle.done()
        assert handle.status in (JobStatus.QUEUED, JobStatus.ASSIGNED, JobStatus.RUNNING)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        _GATE.set()
        report = handle.result(timeout=30)
        assert report.kernel == "softmax" and not report.failed
        assert handle.status is JobStatus.DONE and handle.done()


def test_submit_many_runs_everything_and_join_waits():
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        queue = pool.serve()
        handles = queue.submit_many(["softmax", "rmsnorm", "mmLeakyReLu"])
        queue.join(timeout=120)
        reports = [handle.result() for handle in handles]
        assert [report.kernel for report in reports] == ["softmax", "rmsnorm", "mmLeakyReLu"]
        assert not any(report.failed for report in reports)
        assert queue.stats["done"] == 3


def test_submit_routes_backend_constraints():
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        queue = pool.serve()
        handle = queue.submit("softmax", backend="A30")
        report = handle.result(timeout=120)
        assert report.gpu == "A30-24GB-PCIe"
        assert handle.record().worker == "w1:A30-24GB-PCIe"
        with pytest.raises(KeyError):
            queue.submit("softmax", backend="RTX3090")


def test_failed_jobs_return_failed_reports():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.submit("does-not-exist")
        report = handle.result(timeout=120)
        assert report.failed and handle.status is JobStatus.FAILED
        assert handle.record().error == report.error
        assert queue.stats["failed"] == 1


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------
def test_cancel_before_running_never_touches_a_worker():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        blocker = queue.submit("softmax", strategy="serve-block")
        assert _STARTED.wait(timeout=30)
        victim = queue.submit("rmsnorm")
        assert victim.cancel()
        assert victim.cancel() is False  # already terminal
        _GATE.set()
        blocker.result(timeout=30)
        with pytest.raises(JobCancelled):
            victim.result(timeout=30)
        assert victim.status is JobStatus.CANCELLED
        kinds = [event.kind for event in victim.events()]
        assert "running" not in kinds and kinds[-1] == "cancelled"
        # Only the blocker ever ran.
        assert pool.workers[0].jobs_run == 1


def test_cancel_during_run_stops_at_the_next_checkpoint():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.submit("softmax", strategy="serve-checkpointed")
        assert _STARTED.wait(timeout=30)
        assert handle.cancel()
        with pytest.raises(JobCancelled):
            handle.result(timeout=30)
        assert handle.status is JobStatus.CANCELLED
        assert queue.stats["cancelled"] == 1


#: Every built-in strategy, at budgets small enough for a quick search.
_HOOKED_STRATEGIES = ("ppo", "random", "greedy", "evolutionary")


def _quick(strategy: str) -> OptimizationConfig:
    return _FAST.replace(
        strategy=strategy, train_timesteps=16, population=3, generations=1,
        moves_per_individual=3,
    )


@pytest.mark.parametrize("strategy", _HOOKED_STRATEGIES)
def test_session_hooks_cancel_a_real_search(strategy):
    """The checkpoint is live inside the real measurement path: every
    strategy's search on a real workload stops within one candidate batch."""
    calls = []

    def checkpoint():
        calls.append(len(calls))
        if len(calls) >= 3:
            raise JobCancelled("stop now")

    with Session(gpu="A100-sim", config=_quick(strategy), cache=_NO_CACHE) as session:
        with pytest.raises(JobCancelled):
            session.optimize(
                "mmLeakyReLu", hooks=SessionHooks(checkpoint=checkpoint)
            )
    assert len(calls) >= 3  # the service consulted the checkpoint repeatedly


@pytest.mark.parametrize("strategy", _HOOKED_STRATEGIES)
def test_session_hooks_stream_progress_counts(strategy):
    counts = []
    with Session(gpu="A100-sim", config=_quick(strategy), cache=_NO_CACHE) as session:
        report = session.optimize(
            "mmLeakyReLu", hooks=SessionHooks(progress=counts.append)
        )
    assert not report.failed
    assert counts and counts == sorted(counts)  # cumulative, nondecreasing
    assert counts[-1] >= report.evaluations
    # The strategy forwarded the hook for every submission the service saw.
    assert counts[-1] == report.details["measurement"]["submitted"]


# ---------------------------------------------------------------------------
# Progress events
# ---------------------------------------------------------------------------
def test_progress_events_are_ordered_and_complete():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.submit("mmLeakyReLu")
        handle.result(timeout=120)
        events = handle.events()
        kinds = [event.kind for event in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "assigned"
        assert kinds[2] == "running"
        assert kinds[-1] == "done"
        measured = [event.measured for event in events if event.kind == "measured"]
        assert measured and measured == sorted(measured)
        sequence_numbers = [event.seq for event in events]
        assert sequence_numbers == sorted(sequence_numbers)
        assert handle.record().measured == measured[-1]


def test_job_subscription_replays_history_and_completes():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.submit("softmax")
        handle.result(timeout=120)
        # Subscribing after completion still yields the full stream.
        kinds = [event.kind for event in handle.subscribe()]
        assert kinds[0] == "queued" and kinds[-1] == "done"


def test_finished_job_subscriptions_are_unregistered():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        feed = queue.subscribe()  # pool-wide: registered until closed
        handles = [queue.submit("softmax") for _ in range(5)]
        for handle in handles:
            assert list(handle.subscribe())[-1].kind == "done"
        assert queue._bus._subscriptions == [feed]
        # A subscription to a finished job completes without registering.
        for _ in range(3):
            assert list(handles[0].subscribe())[-1].kind == "done"
        assert queue._bus._subscriptions == [feed]
        feed.close()
        assert queue._bus._subscriptions == []


def test_pool_wide_subscription_sees_every_job():
    with SessionPool(["A100-sim", "A100-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        queue = pool.serve()
        feed = queue.subscribe()
        handles = queue.submit_many(["softmax", "rmsnorm"])
        for handle in handles:
            handle.result(timeout=120)
        finished = set()
        while len(finished) < 2:
            event = feed.get(timeout=10)
            assert event is not None
            if event.kind == "done":
                finished.add(event.job_id)
        assert finished == {handle.job_id for handle in handles}
        feed.close()


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------
def test_result_store_hit_skips_optimization():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        first = queue.submit("softmax")
        report = first.result(timeout=120)
        evaluations_before = pool.workers[0].evaluations
        second = queue.submit("softmax")
        again = second.result(timeout=120)
        assert second.from_store and not first.from_store
        assert again is report  # the identical report object, instantly
        assert pool.workers[0].evaluations == evaluations_before  # no new search
        assert queue.stats["store_hits"] == 1
        kinds = [event.kind for event in second.events()]
        assert "running" not in kinds  # resolved without optimizing


def test_result_store_respects_use_store():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        first = queue.submit("softmax")
        first.result(timeout=120)
        fresh = queue.submit("softmax", use_store=False)
        fresh.result(timeout=120)
        assert not fresh.from_store


def test_result_store_is_lru_bounded():
    store = ResultStore(max_entries=2)
    sentinel = object()
    store.put("a", sentinel)
    store.put("b", sentinel)
    assert store.get("a") is sentinel  # refreshes "a"
    store.put("c", sentinel)  # evicts "b", the least recently used
    assert store.get("b") is None
    assert store.get("a") is sentinel and store.get("c") is sentinel
    assert len(store) == 2 and store.stats.evictions == 1
    assert store.snapshot()["entries"] == 2
    store.clear()
    assert len(store) == 0


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def test_queue_close_cancels_pending_and_rejects_new_jobs():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        blocker = queue.submit("softmax", strategy="serve-block")
        assert _STARTED.wait(timeout=30)
        pending = queue.submit("rmsnorm")
        queue.close(wait=False)
        with pytest.raises(JobCancelled):
            pending.result(timeout=30)
        with pytest.raises(OptimizationError):
            queue.submit("softmax")
        _GATE.set()
        blocker.result(timeout=30)  # the running job still completes
        queue.close()  # idempotent, joins the threads


def test_closing_a_queue_does_not_brick_the_pool():
    """Worker sessions survive a queue teardown: serve() hands out a fresh
    queue and optimize_many keeps working on the still-open pool."""
    with _single_worker_pool() as pool:
        first = pool.serve()
        first.submit("softmax").result(timeout=120)
        first.close()
        replacement = pool.serve()
        assert replacement is not first and not replacement.closed
        assert replacement.submit("rmsnorm").result(timeout=120).kernel == "rmsnorm"
        replacement.close()
        result = pool.optimize_many(["softmax"])  # wrapper re-serves too
        assert len(result) == 1 and not result[0].failed


def test_serve_returns_one_queue_per_pool():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        assert pool.serve() is queue
        with pytest.raises(OptimizationError):
            pool.serve(ServeConfig(progress_every=5))  # conflicting reconfiguration
    with pytest.raises(OptimizationError):
        pool.serve()  # closed pools do not serve
    with pytest.raises(OptimizationError):
        JobQueue(pool)  # direct construction refuses them too


def test_serve_starts_one_thread_per_worker():
    """The queue runs one thread per pool worker and no dispatcher."""
    with SessionPool(
        ["A100-sim", "A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE
    ) as pool:
        before = set(threading.enumerate())
        queue = pool.serve()
        started = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("serve-")
        ]
        assert sorted(thread.name for thread in started) == sorted(
            f"serve-{worker.name}" for worker in pool.workers
        )
        assert "serve-dispatch" not in {thread.name for thread in started}
        queue.close()
        assert not any(thread.is_alive() for thread in started)


def test_work_stealing_rebalances_a_skewed_batch():
    """While one twin runs a long job, the other takes every job queued
    behind it: an idle worker pulls from the one shared queue."""
    with SessionPool(["A100-sim", "A100-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        queue = pool.serve()
        blocker = queue.submit("softmax", strategy="serve-block")
        assert _STARTED.wait(timeout=30)
        trailing = queue.submit_many(["rmsnorm", "rmsnorm", "rmsnorm"], use_store=False)
        for handle in trailing:
            report = handle.result(timeout=120)
            assert not report.failed
        busy = blocker.record().worker
        assert busy in {worker.name for worker in pool.workers}
        assert {handle.record().worker for handle in trailing} == {
            worker.name for worker in pool.workers if worker.name != busy
        }
        _GATE.set()
        blocker.result(timeout=30)


#: Seeded job mixes for the serving-invariant property.
_MIX_SEEDS = (11, 12, 13)


@pytest.fixture()
def fast_switching():
    """Switch threads every 10 us, so claims and cancels interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("seed", _MIX_SEEDS)
def test_shared_queue_serving_invariants(seed, fast_switching):
    """A seeded mix of free, backend-bound and pinned jobs, some cancelled
    before any worker could take them and some while the pool drains.

    Every job ends exactly once, each job that ran ran on a worker its pin
    and backend allow, each worker took its jobs oldest first, and nothing
    stays pending.
    """
    rng = random.Random(seed)
    with SessionPool(
        ["A100-sim", "A100-sim", "A30-sim"],
        config=_FAST.replace(strategy="serve-instant"),
        cache=_NO_CACHE,
    ) as pool:
        queue = pool.serve()
        # Hold every worker so the mix queues up behind them.
        holders = [
            queue.submit("softmax", strategy="serve-hold", pin_worker=index, use_store=False)
            for index in range(len(pool.workers))
        ]
        for _ in holders:
            assert _HOLDING.acquire(timeout=30)

        constraints = []
        mix = []
        for _ in range(30):
            kind = rng.choice(("free", "backend", "pin"))
            backend = rng.choice(("A100-sim", "A30-sim")) if kind == "backend" else None
            pin = rng.randrange(len(pool.workers)) if kind == "pin" else None
            kernel = rng.choice(("softmax", "rmsnorm"))
            mix.append(queue.submit(kernel, backend=backend, pin_worker=pin, use_store=False))
            constraints.append((backend, pin))
        early = rng.sample(mix, 6)
        for handle in early:
            assert handle.cancel()  # every worker is held: none may take it
        _GATE.set()
        late = rng.sample([handle for handle in mix if handle not in early], 6)
        for handle in late:
            handle.cancel()  # races the workers: queued, taken or finished
        queue.join(timeout=60)

        handles = holders + mix
        constraints = [(None, index) for index in range(len(holders))] + constraints
        assert len({handle.job_id for handle in handles}) == len(handles)
        workers = {worker.name: worker for worker in pool.workers}
        claims = {name: [] for name in workers}
        for handle, (backend, pin) in zip(handles, constraints):
            kinds = [event.kind for event in handle.events()]
            assert sum(kind in TERMINAL_KINDS for kind in kinds) == 1
            assert kinds[-1] in TERMINAL_KINDS and handle.status.terminal
            name = handle.record().worker
            if "assigned" not in kinds:
                assert handle.status is JobStatus.CANCELLED and name is None
                assert "running" not in kinds
                continue
            assert handle not in early
            assert pin in (None, workers[name].index)
            assert backend is None or backend_spec(backend).name == workers[name].backend
            claims[name].append(handle)
        # Each worker's jobs are in submission order, so it took them oldest
        # first exactly when its assigned events come in that order too.
        for taken in claims.values():
            assigned = [
                next(event.seq for event in handle.events() if event.kind == "assigned")
                for handle in taken
            ]
            assert assigned == sorted(assigned)
        assert queue.metrics()["queue"]["pending"] == 0
        assert queue.stats["done"] + queue.stats["cancelled"] == len(handles)
