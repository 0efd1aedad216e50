#!/usr/bin/env python
"""Optimize the full LLM kernel suite (the registry's ``llm``-tagged workloads).

``session.optimize_many`` fans the hierarchical search of §3.1 out over every
``llm``-tagged kernel in the registry — the paper's Table 2 / Figure 6
workloads plus the extended suite (fused layernorm, MoE dispatch scan) —
grid-search autotuning of the kernel configuration followed by RL
optimization of the SASS schedule, returning one structured ``RunReport``
per workload, printed as a Figure-6-style table of normalized throughput
against the Triton (-O3) baseline.

Run with:  python examples/llm_kernel_suite.py
"""

from statistics import geometric_mean

from repro.api import CacheConfig, OptimizationConfig, Session
from repro.triton.spec import available_kernels
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    session = Session(
        gpu="A100-sim",
        cache=CacheConfig(enabled=False),
        config=OptimizationConfig(
            strategy="ppo",
            scale="test",
            episode_length=16,
            train_timesteps=96,
        ),
    )

    # Enumerate the suite from the kernel registry: every ``llm``-tagged
    # workload, which grows automatically as kernels are registered.
    workloads = available_kernels(tags=("llm",))
    reports = session.optimize_many(workloads)
    succeeded = []
    for report in reports:
        if report.failed:
            print(f"{report.kernel:16s}  FAILED: {report.error}")
            continue
        succeeded.append(report)
        print(f"{report.kernel:16s}  Triton {report.baseline_time_ms*1e3:9.2f} us   "
              f"CuAsmRL {report.best_time_ms*1e3:9.2f} us   speedup {report.speedup:.3f}x")
    if not succeeded:
        raise SystemExit("every workload failed")

    geomean = geometric_mean([report.speedup for report in succeeded])
    best = max(report.speedup for report in succeeded)
    print(f"\ngeometric-mean speedup over Triton: {geomean:.3f}x (paper: 1.09x)")
    print(f"largest per-kernel speedup:        {best:.3f}x (paper: up to 1.26x)")


if __name__ == "__main__":
    main()
