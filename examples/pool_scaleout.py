#!/usr/bin/env python
"""Scale-out: shard a batch of workloads across a multi-backend SessionPool.

A :class:`SessionPool` owns one worker :class:`Session` per configured GPU
backend (duplicates fan out over the same GPU type), runs job *i* of an
``optimize_many`` batch on worker *i* mod *N*, and shares one
measurement-memo table so a schedule measured by one worker is a hit for its
siblings.  Each worker caches deploy artifacts in a per-backend namespace, so
``pool.deploy(kernel, backend=...)`` always finds the right cubin.

Run with:  python examples/pool_scaleout.py
"""

import tempfile

from repro.api import OptimizationConfig
from repro.pool import SessionPool
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    config = OptimizationConfig(
        strategy="greedy",  # deterministic and quick for a demo; "ppo" works too
        scale="test",
        search_budget=32,
        episode_length=8,
        autotune=False,
        verify=False,
    )
    # Enumerate from the kernel registry: the gemm family plus the
    # timing-bench set (bmm carries both tags, so it appears twice —
    # duplicate jobs exercise the shared measurement memo).
    from repro.triton.spec import available_kernels

    workloads = [
        *available_kernels(tags=("gemm",)),
        *available_kernels(tags=("timing-bench",)),
    ]

    with tempfile.TemporaryDirectory() as cache_dir:
        with SessionPool(
            # Two A100 instances plus one A30: duplicates share measurements
            # through the pool memo, the A30 gets its own cache namespace.
            ["A100-sim", "A100-sim", "A30-sim"],
            cache_dir=cache_dir,
            config=config,
        ) as pool:
            result = pool.optimize_many(workloads)

            print(f"\n{len(result)} jobs on {len(pool)} workers "
                  f"({result.evaluations} evaluations, "
                  f"{result.evaluations_per_sec:.1f} evals/s):")
            for report, worker in zip(result, result.assignments):
                print(f"  {report.kernel:<12s} on {worker:<20s} "
                      f"{report.baseline_time_ms * 1e3:8.2f} us -> "
                      f"{report.best_time_ms * 1e3:8.2f} us  ({report.speedup:.3f}x)")

            memo = result.memo
            print(f"\nshared memo: {memo['hits']} hits "
                  f"({memo['cross_worker_hits']} cross-worker) over {memo['lookups']} lookups")
            for worker in result.workers:
                print(f"  {worker.worker:<20s} {worker.jobs} jobs, "
                      f"{worker.evaluations} evaluations, {worker.elapsed_s:.2f}s busy")

            # Deploy-time lookup routes to the matching worker's cache
            # namespace; job i ran on worker i mod 3, and workers 0 and 1
            # are the A100s.
            kernel = next(
                report.kernel
                for report, worker in zip(result, result.assignments)
                if "A100" in worker
            )
            deployed = pool.deploy(kernel, backend="A100-sim")
            print(f"\ndeployed {kernel} from the A100 namespace: "
                  f"{len(deployed.kernel.instructions)} SASS instructions")


if __name__ == "__main__":
    main()
