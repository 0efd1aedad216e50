"""Benchmark: the shared job queue beats a pinned round-robin shard on a skewed batch.

``optimize_many`` pins job *i* to worker *i* mod *N*, so one long job
strands every light job pinned behind it while the twin worker goes idle.
The serve queue's workers instead each take the oldest pending job they may
run, so the idle twin takes every light job and the makespan is bounded by
the long job.

Job durations are made deterministic by a sleep-based strategy (the real
searches' runtimes vary by host), so the comparison is a property of the
schedules, not of simulator throughput: with a 0.75 s job and eight 0.06 s
jobs on two same-GPU workers, the pinned shard's critical path is the long
job *plus* four light jobs, the shared queue's is the long job alone.
"""

import time

from repro.api import CacheConfig, OptimizationConfig, StrategyOutcome, register_strategy
from repro.pool import SessionPool

_FAST = OptimizationConfig(
    strategy="bench-skew-sleep", scale="test", autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)

#: Deterministic per-workload durations (seconds) for the sleep strategy.
_SLEEP_S = {"mmLeakyReLu": 0.75, "softmax": 0.06}
#: One heavy job, then a tail of light ones: the skewed serving batch.
_SKEWED_BATCH = ["mmLeakyReLu"] + ["softmax"] * 8


@register_strategy("bench-skew-sleep")
class _SleepStrategy:
    """Stands in for a search whose cost depends only on the workload."""

    name = "bench-skew-sleep"

    def run(self, context):
        time.sleep(_SLEEP_S[context.compiled.spec.name])
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=1.0,
            best_time_ms=1.0,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


def _pool():
    return SessionPool(["A100-sim", "A100-sim"], config=_FAST, cache=_NO_CACHE)


def test_shared_queue_beats_pinned_round_robin():
    # Arm 1 — the shared queue (run first: any warm-cache advantage from
    # ordering accrues to the *pinned* arm, biasing against the assertion).
    with _pool() as pool:
        queue = pool.serve()
        started = time.perf_counter()
        handles = queue.submit_many(_SKEWED_BATCH, use_store=False)
        reports = [handle.result(timeout=120) for handle in handles]
        shared_wall_s = time.perf_counter() - started
        heavy, *light = [handle.record().worker for handle in handles]
    assert not any(report.failed for report in reports)

    # Arm 2 — the pinned shard: same jobs, job i on worker i mod 2.
    with _pool() as pool:
        result = pool.optimize_many(_SKEWED_BATCH)
        pinned_wall_s = result.elapsed_s
    assert not result.failures

    print(
        f"\nskewed batch ({len(_SKEWED_BATCH)} jobs, 2x A100): "
        f"pinned round robin {pinned_wall_s:.3f}s vs "
        f"shared queue {shared_wall_s:.3f}s"
    )
    # The idle twin took every light job, and the makespan is no worse than
    # the pinned shard's.
    assert heavy is not None and all(worker not in (None, heavy) for worker in light)
    assert shared_wall_s <= pinned_wall_s
