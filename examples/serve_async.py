#!/usr/bin/env python
"""Serving: submit jobs to an async queue, stream progress, cancel, re-hit.

The serve layer is the front door of the deployment story: instead of
blocking on a whole ``optimize_many`` batch, callers ``submit()`` workloads
to a :class:`repro.serve.JobQueue` over the pool and get handles back
immediately.  Every worker takes the oldest queued job it may run from one
shared queue, every job streams
``queued → assigned → running → measured(n) → done`` events, and finished
results persist in a pool-level store so re-submitting a
``(workload, backend)`` pair resolves instantly from its cache key.

Run with:  python examples/serve_async.py
"""

import tempfile
import threading

from repro.api import OptimizationConfig, ServeConfig
from repro.pool import SessionPool
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    config = OptimizationConfig(
        strategy="greedy",  # deterministic and quick for a demo; "ppo" works too
        scale="test",
        search_budget=16,
        episode_length=8,
        autotune=False,
        verify=False,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        with SessionPool(
            ["A100-sim", "A100-sim", "A30-sim"],  # twin A100s share unbound jobs
            cache_dir=cache_dir,
            config=config,
        ) as pool:
            queue = pool.serve(ServeConfig(progress_every=8))

            # A pool-wide subscriber tails every job's lifecycle concurrently.
            feed = queue.subscribe()

            def tail() -> None:
                for event in feed:
                    extra = f" n={event.measured}" if event.kind == "measured" else ""
                    print(f"  [{event.seq:03d}] {event.job_id} {event.kind}"
                          f"{extra} {event.worker or ''}")

            tailer = threading.Thread(target=tail, daemon=True)
            tailer.start()

            print("== submit_many returns immediately; handles resolve as jobs finish")
            handles = queue.submit_many(["mmLeakyReLu", "rmsnorm", "bmm", "softmax"])
            print(f"   submitted {len(handles)} jobs; first status: {handles[0].status.value}")

            # Cancel one job right away: it is pulled back before (or stopped
            # cooperatively while) running.
            doomed = queue.submit("mmLeakyReLu", backend="A30")
            print(f"   cancel {doomed.job_id}: {doomed.cancel()}")

            for handle in handles:
                report = handle.result(timeout=300)
                print(f"   {handle.job_id} {report.kernel:12s} on {report.gpu}: "
                      f"{report.baseline_time_ms:.4f} -> {report.best_time_ms:.4f} ms "
                      f"({report.speedup:.2f}x)")

            print("== re-submitting resolves instantly from the result store")
            again = queue.submit("rmsnorm")
            report = again.result(timeout=300)
            print(f"   {again.job_id} from_store={again.from_store} "
                  f"best={report.best_time_ms:.4f} ms")

            stats = queue.stats
            print(f"== queue stats: {stats['done']} done, {stats['cancelled']} cancelled, "
                  f"{stats['store_hits']} store hits")
            queue.close()
            tailer.join(timeout=5)


if __name__ == "__main__":
    main()
