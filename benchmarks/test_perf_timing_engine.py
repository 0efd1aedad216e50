"""Perf: candidate evaluations/sec of the timing engine, and the store-hit audit.

Tracks the measurement hot path: the decoded program, the event-driven issue
loop, the timing view that elides data-only instructions, the flat register
file and the precomputed bank conflicts.  Each speedup floor sits about a
fifth below what ``benchmarks/run_timing_bench.py`` measures (see
``BENCH_timing.json``: ~10x on bmm, ~5x on softmax), so shared CI runners do
not flake.  The bmm floor fails the engine without the flat register file,
the precomputed bank conflicts and the record-taking step (~6.5x); the
softmax floor fails it without the timing view (~3x).

The store-audit gate holds a repeat audit of a stored seed to a third of its
first audit: the first builds the seed's dependence graph and pins it, a
repeat reads the pin (8-10x cheaper in ``BENCH_timing.json``).
"""

import dataclasses

import pytest

import repro.triton.kernels  # noqa: F401 - registers the workload specs
from repro.sim import create_measurement_service
from repro.sim._reference_sm import reference_measure
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

from run_timing_bench import (
    BENCH_WORKLOADS,
    bench_greedy_batch,
    bench_single_env,
    bench_store_audit,
)


def _check_single_env(benchmark, simulator, name: str, floor: float) -> None:
    compiled = compile_spec(get_spec(name), scale="test")
    inputs = compiled.make_inputs(0)

    result = benchmark.pedantic(
        lambda: bench_single_env(simulator, compiled, inputs, seconds=1.5),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n{name} single-env: {result['evals_per_sec']:.1f} evals/s, "
        f"{result['cycles_simulated_per_sec']:.0f} cycles/s, "
        f"{result['speedup_vs_seed_engine']:.2f}x vs seed engine"
    )
    assert result["speedup_vs_seed_engine"] >= floor

    # Fast means nothing unless bit-identical: spot-check against the seed
    # engine on the same workload.
    service = create_measurement_service(
        simulator, compiled.grid, inputs, compiled.param_order
    )
    produced = service.measure_batch([compiled.kernel])[0]
    reference = reference_measure(
        simulator, compiled.kernel, compiled.grid, inputs, compiled.param_order
    )
    assert produced.time_ms == reference.time_ms
    assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)


def test_single_env_measurement_throughput(benchmark, simulator):
    _check_single_env(benchmark, simulator, "softmax", floor=4.0)


def test_bmm_single_env_measurement_throughput(benchmark, simulator):
    _check_single_env(benchmark, simulator, "bmm", floor=8.0)


def test_greedy_batch_measurement_throughput(benchmark, simulator):
    # bmm has a rich legal-move neighborhood at test scale (softmax has none).
    compiled = compile_spec(get_spec("bmm"), scale="test")

    result = benchmark.pedantic(
        lambda: bench_greedy_batch(simulator, compiled, seconds=1.5),
        rounds=1,
        iterations=1,
    )
    print(
        f"\ngreedy batch ({result['batch_size']} candidates): "
        f"{result['evals_per_sec']:.1f} evals/s, "
        f"{result['cycles_simulated_per_sec']:.0f} cycles/s"
    )
    assert result["batch_size"] > 0
    assert result["evals_per_sec"] > 0


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_store_audit_reuses_the_pinned_graph(benchmark, name):
    kernel = compile_spec(get_spec(name), scale="test").kernel

    result = benchmark.pedantic(lambda: bench_store_audit(kernel), rounds=1, iterations=1)
    print(
        f"\n{name} store audit: {result['first_ms']:.2f} ms first, "
        f"{result['repeat_ms']:.2f} ms repeat"
    )
    assert result["repeat_ms"] <= result["first_ms"] / 3
