"""Tests for the ``repro.pool`` subsystem: SessionPool, sharding, shared memo."""

import dataclasses

import pytest

from repro.api import (
    CacheConfig,
    MeasurementPolicy,
    OptimizationConfig,
    PoolReport,
    Session,
    StrategyOutcome,
    register_strategy,
)
from repro.errors import OptimizationError
from repro.pool import SessionPool, SharedMemoTable

_FAST = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=12, episode_length=8,
    autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)


# ---------------------------------------------------------------------------
# Sharding equivalence: a pool job == a standalone session run
# ---------------------------------------------------------------------------
def test_pool_matches_standalone_sessions():
    """Per-job results are exactly what a dedicated Session would produce."""
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        result = pool.optimize_many(["mmLeakyReLu", "rmsnorm", "softmax", "softmax"])

    assert isinstance(result, PoolReport)
    assert [report.kernel for report in result] == ["mmLeakyReLu", "rmsnorm", "softmax", "softmax"]
    # Job i runs on worker i mod 2: even jobs on the A100, odd ones on the A30.
    assert [report.gpu for report in result] == [
        "A100-80GB-PCIe", "A30-24GB-PCIe", "A100-80GB-PCIe", "A30-24GB-PCIe",
    ]
    assert result.assignments == (
        "w0:A100-80GB-PCIe", "w1:A30-24GB-PCIe", "w0:A100-80GB-PCIe", "w1:A30-24GB-PCIe",
    )

    for report in result:
        standalone = Session(gpu=report.gpu, config=_FAST, cache=_NO_CACHE).optimize(report.kernel)
        assert report.best_time_ms == standalone.best_time_ms
        assert report.baseline_time_ms == standalone.baseline_time_ms
        assert report.evaluations == standalone.evaluations

    assert len(result) == 4 and not result.failures
    assert result.evaluations == sum(report.evaluations for report in result)
    assert result.evaluations_per_sec > 0
    summary = result.summary()
    assert len(summary["jobs"]) == 4
    assert isinstance(result.to_json(), str)


def test_pool_worker_stats_cover_all_workers():
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        result = pool.optimize_many(["softmax"])
    # One job: worker 0 ran it, worker 1 stayed idle but is still reported.
    assert [worker.jobs for worker in result.workers] == [1, 0]
    assert result.workers[0].gpu == "A100-80GB-PCIe"


def test_pool_worker_stats_are_per_run():
    """Each PoolReport covers its own run, not the pool's lifetime totals."""
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        first = pool.optimize_many(["mmLeakyReLu", "mmLeakyReLu"])
        second = pool.optimize_many(["mmLeakyReLu"])
    assert [worker.jobs for worker in first.workers] == [1, 1]
    assert [worker.jobs for worker in second.workers] == [1, 0]
    for result in (first, second):
        assert sum(worker.evaluations for worker in result.workers) == result.evaluations
    # The workers' own counters keep the pool's lifetime totals.
    assert [worker.jobs_run for worker in pool.workers] == [2, 1]


# ---------------------------------------------------------------------------
# Shared memo: cross-worker measurement reuse
# ---------------------------------------------------------------------------
def test_shared_memo_records_cross_worker_hits():
    """Twin workers on the same workload answer each other's measurements."""
    with SessionPool(["A100-sim", "A100-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        result = pool.optimize_many(["mmLeakyReLu", "mmLeakyReLu", "rmsnorm", "rmsnorm"])
    assert result.memo["hits"] > 0
    assert result.memo["cross_worker_hits"] > 0
    # Sharing must not change results: both copies of a job agree exactly.
    assert result[0].best_time_ms == result[1].best_time_ms
    assert result[2].best_time_ms == result[3].best_time_ms


def test_shared_memo_scopes_backends_apart():
    """Distinct GPU targets never share timings (scoped keys, no cross hits)."""
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        result = pool.optimize_many(["mmLeakyReLu", "mmLeakyReLu"])
    assert result.memo["cross_worker_hits"] == 0
    # Same workload, different GPUs: genuinely different timings.
    assert result[0].best_time_ms != result[1].best_time_ms


def test_shared_memo_table_is_bounded_and_race_safe():
    table = SharedMemoTable(max_entries=2)
    first, second = object(), object()  # stand-ins for two equal timings
    assert table.put("a", first, owner="w0") is first
    # A losing racer gets the stored timing back, not its own.
    assert table.put("a", second, owner="w1") is first
    assert table.get("a", owner="w1") is first
    assert table.stats.cross_worker_hits == 1
    table.put("b", object(), owner="w0")
    table.put("c", object(), owner="w0")  # evicts the LRU entry
    assert len(table) == 2
    assert table.stats.evictions == 1
    table.clear()
    assert len(table) == 0 and table.get("b") is None


# ---------------------------------------------------------------------------
# Failure isolation: one poisoned job must not take down sibling workers
# ---------------------------------------------------------------------------
@register_strategy("pool-fail-on-rmsnorm")
class _FailOnRmsnorm:
    name = "pool-fail-on-rmsnorm"

    def run(self, context):
        if context.compiled.spec.name == "rmsnorm":
            raise RuntimeError("injected pool failure")
        baseline = context.compiled.measure(
            context.simulator, measurement=context.measurement
        ).time_ms
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=baseline,
            best_time_ms=baseline,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


def test_pool_failure_isolation():
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        result = pool.optimize_many(
            ["softmax", "rmsnorm", "mmLeakyReLu"], strategy="pool-fail-on-rmsnorm"
        )
    assert [report.kernel for report in result] == ["softmax", "rmsnorm", "mmLeakyReLu"]
    assert not result[0].failed and not result[2].failed
    assert result[1].failed and "injected pool failure" in result[1].error
    assert result.failures == [result[1]]
    assert len(result.succeeded) == 2
    # The sibling jobs still produced real measurements.
    assert result[0].evaluations == 1 and result[2].evaluations == 1


def test_pool_on_error_raise_carries_pool_report():
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        with pytest.raises(OptimizationError) as excinfo:
            pool.optimize_many(
                ["softmax", "rmsnorm"], strategy="pool-fail-on-rmsnorm", on_error="raise"
            )
    assert "rmsnorm" in str(excinfo.value)
    assert [report.kernel for report in excinfo.value.reports] == ["softmax"]
    assert isinstance(excinfo.value.pool_report, PoolReport)
    assert len(excinfo.value.pool_report) == 2


def test_pool_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SessionPool([])
    with pytest.raises(KeyError):
        SessionPool(["does-not-exist"])
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        with pytest.raises(ValueError):
            pool.optimize_many(["softmax"], on_error="explode")
        queue = pool.serve()
        with pytest.raises(ValueError, match="out of range"):
            queue.submit("softmax", pin_worker=2)
        # A job pinned to a worker of another backend could never run.
        with pytest.raises(ValueError, match="does not target"):
            queue.submit("softmax", backend="A100-sim", pin_worker=1)
        assert queue.jobs() == []


# ---------------------------------------------------------------------------
# Regression tests: pool robustness bugfixes (PR 5)
# ---------------------------------------------------------------------------
def test_pool_closed_worker_session_fails_jobs_not_batch():
    """A worker whose session died must not poison the batch.

    Before the PR 5 fix, the closed session's error propagated out of the
    shard thread and ``optimize_many`` raised even under
    ``on_error="report"``, abandoning the sibling workers' results.  Since
    the supervision layer landed, the first job to hit the dead session
    still fails as a report — but it also marks the worker unhealthy and
    respawns its session in place, so *later* jobs pinned to the same
    worker run normally instead of failing one after another.
    """
    with SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        pool.workers[1].session.close()
        result = pool.optimize_many(["softmax", "softmax", "rmsnorm", "rmsnorm"])
        # Every input keeps its slot; job i runs on worker i mod 2, so odd jobs
        # go to the dead worker.
        assert [report.kernel for report in result] == [
            "softmax", "softmax", "rmsnorm", "rmsnorm",
        ]
        assert not result[0].failed and not result[2].failed
        # The first job on the dead worker fails as a report and triggers
        # supervision...
        assert result[1].failed and "closed" in result[1].error
        # ...which revives the worker in time for the next job pinned to it.
        assert not result[3].failed
        assert pool.workers[1].restarts == 1
        assert pool.workers[1].healthy
        assert pool.health()["healthy_workers"] == 2
        # The sibling worker still produced real results.
        assert result[0].best_time_ms > 0
        # A follow-up batch on the revived worker is clean, so
        # on_error="raise" no longer trips.
        clean = pool.optimize_many(["softmax", "softmax"], on_error="raise")
        assert not any(report.failed for report in clean)


def test_pool_never_drops_result_slots():
    """A worker path that yields no report becomes a failed slot, not a gap.

    Before the fix, ``optimize_many`` filtered ``None`` slots out of the
    report list, silently shrinking (and misaligning) the results whenever a
    worker returned fewer reports than jobs.
    """
    with SessionPool(["A100-sim"], config=_FAST, cache=_NO_CACHE) as pool:
        pool.workers[0].session.optimize = lambda *args, **kwargs: None
        result = pool.optimize_many(["softmax", "rmsnorm"])
    assert len(result) == 2
    assert [report.kernel for report in result] == ["softmax", "rmsnorm"]
    assert all(report.failed for report in result)
    assert all("no report" in report.error for report in result)


def test_pool_close_survives_a_failing_worker_close():
    """One worker's failing ``close()`` must not leak its siblings.

    Before the fix the loop aborted at the raising worker, leaving every
    later session (and the shared memo) alive.
    """
    pool = SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE)

    def explode():
        raise RuntimeError("injected close failure")

    pool.workers[0].session.close = explode
    with pytest.raises(RuntimeError, match="injected close failure"):
        pool.close()
    assert pool.closed
    assert pool.workers[1].session.closed  # the sibling was still torn down
    pool.close()  # idempotent: a second close neither raises nor re-runs
    with pytest.raises(OptimizationError):
        pool.worker_for("A100-sim")  # closed pools refuse worker lookups too


# ---------------------------------------------------------------------------
# Namespaced caches and deploy routing
# ---------------------------------------------------------------------------
def test_pool_namespaces_caches_per_backend(tmp_path):
    with SessionPool(["A100-sim", "A30-sim"], cache_dir=tmp_path, config=_FAST) as pool:
        result = pool.optimize_many(["softmax", "softmax"])
        assert all(report.cached for report in result)
        cache_dirs = {worker.session.cache.directory for worker in pool.workers}
        assert len(cache_dirs) == 2
        assert all(directory.parent == tmp_path for directory in cache_dirs)

        # Deploy routes by backend and finds each worker's own artifact.
        a100 = pool.deploy("softmax", backend="A100-sim")
        a30 = pool.deploy("softmax", backend="A30")
        assert a100.kernel.render() == result[0].artifact.result.best_kernel.render()
        assert a30.kernel.render() == result[1].artifact.result.best_kernel.render()
        with pytest.raises(KeyError):
            pool.worker_for("RTX3090")


def test_pool_duplicate_backends_share_a_namespace(tmp_path):
    with SessionPool(["A100-sim", "A100-sim"], cache_dir=tmp_path, config=_FAST) as pool:
        assert len({worker.session.cache.directory for worker in pool.workers}) == 1


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def test_pool_close_tears_workers_down():
    pool = SessionPool(["A100-sim", "A30-sim"], config=_FAST, cache=_NO_CACHE)
    assert not pool.closed and len(pool) == 2
    pool.close()
    pool.close()  # idempotent
    assert pool.closed
    assert all(worker.session.closed for worker in pool.workers)
    with pytest.raises(OptimizationError):
        pool.optimize_many(["softmax"])
    with pytest.raises(OptimizationError):
        pool.deploy("softmax", backend="A100-sim")


def test_pool_measurement_policy_is_worker_scoped():
    """The pool must not mutate the caller's policy, only derive from it."""
    policy = MeasurementPolicy(noise_std=0.01)
    with SessionPool(
        ["A100-sim"], config=_FAST, measurement=policy, cache=_NO_CACHE
    ) as pool:
        worker_policy = pool.workers[0].session.measurement
        assert worker_policy.memoize and worker_policy.shared_memo is pool.shared_memo
        assert worker_policy.noise_std == 0.01
    assert policy.shared_memo is None and not policy.memoize
    # Frozen configs still round-trip through replace with the new fields.
    assert dataclasses.replace(policy, memo_owner="x").memo_owner == "x"
