"""Tests for microbenchmarking, the search baselines, the vendor baselines and the cache key."""

import pytest

from repro.baselines import (
    VendorBaselines,
    run_evolutionary_search,
    run_greedy_search,
    run_random_search,
)
from repro.core import cache_key
from repro.microbench import build_stall_table, clock_based_stall_estimate, measure_stall_count
from repro.sim import GPUSimulator
from repro.triton import compile_spec, get_spec


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture(scope="module")
def compiled():
    # mmLeakyReLu has a rich double-buffered pipeline, so the search baselines
    # always have legal moves to explore at test scale.
    return compile_spec(get_spec("mmLeakyReLu"), scale="test")


# ---------------------------------------------------------------------------
# Microbenchmarks (§4.3)
# ---------------------------------------------------------------------------
def test_dependency_microbench_matches_table1(simulator):
    assert measure_stall_count("IADD3", simulator=simulator).stall_count == 4
    assert measure_stall_count("MOV", simulator=simulator).stall_count == 4
    assert measure_stall_count("IMAD.WIDE", simulator=simulator).stall_count == 5


def test_build_stall_table_subset(simulator):
    table = build_stall_table(["IADD3", "FFMA", "IMAD.WIDE.U32"], simulator=simulator)
    assert table.lookup("IADD3") == 4
    assert table.lookup("FFMA") == 4
    assert table.lookup("IMAD.WIDE.U32") == 5


def test_clock_based_underestimates(simulator):
    clock = clock_based_stall_estimate("IADD3", simulator=simulator)
    assert clock.cycles_per_instruction < 4


def test_unknown_microbench_opcode_rejected():
    with pytest.raises(KeyError):
        measure_stall_count("HMMA")


# ---------------------------------------------------------------------------
# Search baselines (§7)
# ---------------------------------------------------------------------------
def test_random_and_greedy_search_never_regress(compiled, simulator):
    rand = run_random_search(compiled, budget=8, simulator=simulator, seed=0)
    greedy = run_greedy_search(compiled, budget=12, simulator=simulator)
    assert rand.speedup >= 0.999 and greedy.speedup >= 0.999
    assert 0 < rand.evaluations <= 8 and 0 < greedy.evaluations <= 12
    assert rand.best_kernel is not None


def test_evolutionary_search_runs(compiled, simulator):
    result = run_evolutionary_search(
        compiled, population=3, generations=1, moves_per_individual=3, simulator=simulator, seed=1
    )
    assert result.speedup >= 0.999
    assert result.evaluations > 0


def test_vendor_baselines(simulator):
    spec = get_spec("softmax")
    compiled = compile_spec(spec, scale="test")
    vendor = VendorBaselines(simulator, search_budget=6)
    timings = vendor.timings_for(spec, compiled)
    fused_ms = compiled.measure(simulator).time_ms
    # The unfused Torch analogue is strictly slower than the fused kernel.
    assert timings.torch_ms is not None and timings.torch_ms > fused_ms
    gemm_spec = get_spec("mmLeakyReLu")
    gemm = compile_spec(gemm_spec, scale="test")
    gemm_timings = VendorBaselines(simulator, search_budget=6).timings_for(gemm_spec, gemm)
    assert gemm_timings.reference_ms is not None
    assert gemm_timings.cutlass_ms is not None
    assert gemm_timings.cutlass_ms > gemm.measure(simulator).time_ms


# ---------------------------------------------------------------------------
# The deploy cache key (§4.2)
# ---------------------------------------------------------------------------
def test_cache_key_is_stable_and_descriptive():
    key = cache_key("A100-80GB-PCIe", "softmax", {"n_rows": 8, "n_cols": 512})
    assert "softmax" in key and "n_cols512" in key and "A100" in key
    assert key == cache_key("A100-80GB-PCIe", "softmax", {"n_cols": 512, "n_rows": 8})
