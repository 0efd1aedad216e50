"""Golden equivalence: the event-driven engine is bit-identical to the seed engine.

The decoded-program + event-driven scheduler rework promised that every
``TimingResult`` field and every measured ``time_ms`` stays exactly what the
seed engine produced — memo digests, cached baselines and benchmark numbers
from before the swap must remain valid.  These tests hold the production
engine to the frozen seed engine (:mod:`repro.sim._reference_sm`) on every
bundled workload, on mutated (swapped) schedules, and under repeated
measurement through the launch-reusing measurement service.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.ampere import A100
from repro.sass import KernelMetadata, SassKernel
from repro.sass.instruction import Instruction
from repro.sim import (
    GPUSimulator,
    GlobalMemory,
    GridConfig,
    LaunchContext,
    MeasurementConfig,
    bind_tensors,
    clear_decoded_program_cache,
    create_measurement_service,
    decode_program,
    decoded_program_cache_info,
)
from repro.sim._reference_sm import ReferenceTimingSimulator, reference_measure
from repro.scenarios import all_scenarios
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

# Every kernel the scenario matrix exercises (importing repro.scenarios
# registers the kernel library and the built-in scenarios).
WORKLOADS = sorted({scenario.kernel for scenario in all_scenarios()})


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture(scope="module")
def compiled_workloads():
    return {name: compile_spec(get_spec(name), scale="test") for name in WORKLOADS}


def _reference_timing(simulator, kernel, grid, tensors, param_order):
    """Seed-engine TimingResult on a freshly bound launch."""
    memory = GlobalMemory()
    params, _ = bind_tensors(memory, tensors, param_order)
    launch = LaunchContext(
        grid_config=grid,
        params=params,
        global_memory=memory,
        shared_memory_bytes=kernel.metadata.shared_memory_bytes,
    )
    return ReferenceTimingSimulator(kernel, launch, simulator.config).run_block((0, 0, 0))


def _swap_candidates(kernel, limit=4):
    """Game-style mutations: actionable memory instructions swapped with an
    in-block instruction neighbor (labels and sync fences never move)."""
    candidates = []
    for index in kernel.memory_instruction_indices():
        block = kernel.block_of(index)
        for neighbor in (index - 1, index + 1):
            if not (block[0] <= neighbor < block[1]):
                continue
            if not isinstance(kernel.lines[neighbor], Instruction):
                continue
            candidates.append(kernel.swap(index, neighbor))
            if len(candidates) >= limit:
                return candidates
    return candidates


# ---------------------------------------------------------------------------
# Engine equivalence on every bundled workload
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOADS)
def test_timing_result_bit_identical_to_seed_engine(name, simulator, compiled_workloads):
    compiled = compiled_workloads[name]
    inputs = compiled.make_inputs(0)
    for kernel in [compiled.kernel, *_swap_candidates(compiled.kernel, limit=2)]:
        # A mutation can break a data dependency badly enough that the access
        # goes out of bounds; the engines must then fail identically too.
        try:
            reference = _reference_timing(
                simulator, kernel, compiled.grid, inputs, compiled.param_order
            )
        except Exception as exc:
            with pytest.raises(type(exc)):
                simulator.time_block(kernel, compiled.grid, inputs, compiled.param_order)
            continue
        produced = simulator.time_block(kernel, compiled.grid, inputs, compiled.param_order)
        assert dataclasses.asdict(produced) == dataclasses.asdict(reference)


@pytest.mark.parametrize("name", WORKLOADS)
def test_measured_time_bit_identical_to_seed_engine(name, simulator, compiled_workloads):
    compiled = compiled_workloads[name]
    inputs = compiled.make_inputs(0)
    for kernel in [compiled.kernel, *_swap_candidates(compiled.kernel, limit=2)]:
        try:
            reference = reference_measure(
                simulator, kernel, compiled.grid, inputs, compiled.param_order
            )
        except Exception as exc:
            with pytest.raises(type(exc)):
                simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
            continue
        produced = simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
        assert produced.time_ms == reference.time_ms
        assert produced.block_cycles == reference.block_cycles
        assert produced.total_cycles == reference.total_cycles
        assert produced.waves == reference.waves


def _measurable_swap_candidates(simulator, compiled, inputs, limit=4):
    """Swap candidates whose (seed-engine) measurement does not fault."""
    survivors = []
    for candidate in _swap_candidates(compiled.kernel, limit=limit * 2):
        try:
            reference_measure(
                simulator, candidate, compiled.grid, inputs, compiled.param_order
            )
        except Exception:
            continue
        survivors.append(candidate)
        if len(survivors) >= limit:
            break
    return survivors


def test_equivalence_holds_under_measurement_noise(simulator, compiled_workloads):
    compiled = compiled_workloads["softmax"]
    inputs = compiled.make_inputs(0)
    measurement = MeasurementConfig(noise_std=0.01, seed=7)
    for kernel in [compiled.kernel, *_measurable_swap_candidates(simulator, compiled, inputs, 2)]:
        reference = reference_measure(
            simulator, kernel, compiled.grid, inputs, compiled.param_order,
            measurement=measurement,
        )
        produced = simulator.measure(
            kernel, compiled.grid, inputs, compiled.param_order, measurement=measurement
        )
        assert produced.time_ms == reference.time_ms


# ---------------------------------------------------------------------------
# Launch reuse: repeated measurement is bit-stable
# ---------------------------------------------------------------------------
def test_repeated_measurement_through_service_is_bit_stable(simulator, compiled_workloads):
    """The launch-reusing service restores simulated memory between candidates,
    so re-measuring any schedule (including store-heavy ones) is bit-stable
    and equal to measuring on a freshly bound launch."""
    for name in WORKLOADS:
        compiled = compiled_workloads[name]
        inputs = compiled.make_inputs(0)
        service = create_measurement_service(
            simulator, compiled.grid, inputs, compiled.param_order
        )
        candidates = [
            compiled.kernel,
            *_measurable_swap_candidates(simulator, compiled, inputs, 1),
        ]
        first = [t.time_ms for t in service.measure_batch(candidates)]
        second = [t.time_ms for t in service.measure_batch(candidates)]
        third = [t.time_ms for t in service.measure_batch(candidates)]
        assert first == second == third
        fresh = [
            simulator.measure(k, compiled.grid, inputs, compiled.param_order).time_ms
            for k in candidates
        ]
        assert first == fresh


def test_launch_reuse_restores_stored_tensors(simulator, compiled_workloads):
    """Measuring dirties output tensors; the snapshot restore must bring the
    launch back to its pristine bound state so timings never drift."""
    compiled = compiled_workloads["softmax"]
    inputs = compiled.make_inputs(0)
    launch = simulator.build_launch(compiled.grid, inputs, compiled.param_order)
    before = {a.name: launch.global_memory.download(a) for a in launch.global_memory.allocations()}
    first = simulator.measure_with_launch(compiled.kernel, launch)
    launch.global_memory.restore()
    after = {a.name: launch.global_memory.download(a) for a in launch.global_memory.allocations()}
    for tensor_name, pristine in before.items():
        assert np.array_equal(after[tensor_name], pristine)
    again = simulator.measure_with_launch(compiled.kernel, launch)
    assert again.time_ms == first.time_ms


# ---------------------------------------------------------------------------
# Property: arbitrary in-block swap walks stay engine-equivalent and stable
# ---------------------------------------------------------------------------
# The walks hold the timing view (data-only instructions elided) to the seed
# engine's full semantics on every kernel: gemm listings elide HMMA, LDGSTS
# and LDS; norm listings elide REDUX and FBCAST.  Illegal walks read stale
# addresses and must fail with the seed engine's exception type.
@pytest.mark.parametrize("name", WORKLOADS)
@settings(max_examples=10, deadline=None)
@given(moves=st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=3))
def test_swap_walk_engines_agree_and_measurements_are_bit_stable(name, moves):
    simulator = GPUSimulator()
    compiled = compile_spec(get_spec(name), scale="test")
    inputs = compiled.make_inputs(0)
    kernel = compiled.kernel
    for pick, downward in moves:
        indices = kernel.memory_instruction_indices()
        index = indices[pick % len(indices)]
        block = kernel.block_of(index)
        neighbor = index + 1 if downward else index - 1
        if not (block[0] <= neighbor < block[1]):
            continue
        if not isinstance(kernel.lines[neighbor], Instruction):
            continue
        kernel = kernel.swap(index, neighbor)
    try:
        reference = reference_measure(
            simulator, kernel, compiled.grid, inputs, compiled.param_order
        )
    except Exception as exc:
        with pytest.raises(type(exc)):
            simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
        return
    once = simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
    twice = simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
    assert once.time_ms == reference.time_ms
    assert once.time_ms == twice.time_ms
    assert dataclasses.asdict(once.timing) == dataclasses.asdict(reference.timing)


def test_issue_cycle_watermark_eviction_is_exact(
    monkeypatch, simulator, compiled_workloads
):
    """Bundled workloads never reach the production eviction threshold, so
    force it down to exercise the finalized-count + recent-set accounting on
    every workload and hold it to the seed engine's ``issue_active_cycles``."""
    import repro.sim.sm as sm_module

    for threshold in (1, 4, 64):
        monkeypatch.setattr(sm_module, "_ISSUE_CYCLE_EVICT_THRESHOLD", threshold)
        for name in WORKLOADS:
            compiled = compiled_workloads[name]
            inputs = compiled.make_inputs(0)
            reference = _reference_timing(
                simulator, compiled.kernel, compiled.grid, inputs, compiled.param_order
            )
            produced = simulator.time_block(
                compiled.kernel, compiled.grid, inputs, compiled.param_order
            )
            assert produced.issue_active_cycles == reference.issue_active_cycles
            assert dataclasses.asdict(produced) == dataclasses.asdict(reference)


# ---------------------------------------------------------------------------
# Decoded-program cache behavior
# ---------------------------------------------------------------------------
def test_decode_program_digest_cache_shares_across_kernel_objects(compiled_workloads):
    compiled = compiled_workloads["softmax"]
    kernel = compiled.kernel
    clone = kernel.swap(*_first_swappable_pair(kernel)).swap(*_first_swappable_pair(kernel))
    assert clone is not kernel and clone.content_digest() == kernel.content_digest()
    program = decode_program(kernel)
    assert decode_program(kernel) is program  # identity hit
    assert decode_program(clone) is program  # digest hit


def _first_swappable_pair(kernel):
    for index in kernel.memory_instruction_indices():
        block = kernel.block_of(index)
        if block[0] <= index + 1 < block[1] and isinstance(kernel.lines[index + 1], Instruction):
            return index, index + 1
    raise AssertionError("no swappable pair in kernel")


def test_decoded_program_cache_is_lru_bounded(compiled_workloads):
    compiled = compiled_workloads["softmax"]
    base = compiled.kernel
    pair = _first_swappable_pair(base)
    try:
        clear_decoded_program_cache(max_entries=2)
        variants = [base]
        kernel = base
        for _ in range(4):
            kernel = kernel.swap(*pair)
            # Alternate swaps toggle between two digests; add distinct kernels
            # by stacking another swap deeper in the listing.
            variants.append(kernel)
            pair = _first_swappable_pair(kernel)
        for variant in variants:
            # Strip identity pins so every decode exercises the digest LRU.
            variant.__dict__.pop("_decoded_program", None)
            decode_program(variant)
        info = decoded_program_cache_info()
        assert info["entries"] <= 2
        assert info["misses"] >= 3
    finally:
        clear_decoded_program_cache(max_entries=256)


def test_kernel_and_instructions_pickle_without_decoded_state(compiled_workloads):
    """Process backends ship candidate kernels to workers; the pinned program,
    the timing slice, compiled handlers and def/use caches must not ride along."""
    compiled = compiled_workloads["softmax"]
    kernel = compiled.kernel
    decode_program(kernel)  # pins the program and compiles every instruction
    payload = pickle.dumps(kernel)
    clone = pickle.loads(payload)
    assert "_decoded_program" not in clone.__dict__
    assert "_multiset_cache" not in clone.__dict__
    for line in clone.lines:
        if isinstance(line, Instruction):
            assert not any(k.startswith("_cached_") for k in line.__dict__)
    assert clone.content_digest() == kernel.content_digest()
    assert clone.render() == kernel.render()


# ---------------------------------------------------------------------------
# A register file other backends do not have: two banks, two reuse slots
# ---------------------------------------------------------------------------
# Every shipped backend has four register banks, so the walks above always
# take the bank conflicts each decoded record precomputes for four.  Two banks
# send every issue through the recounting fetch model; the reuse listing
# below also fills the two reuse slots and evicts from them.
FEW_BANKS = dataclasses.replace(A100, register_banks=2, reuse_cache_slots=2)


def test_few_banks_change_the_bank_conflicts(compiled_workloads):
    for name in ("bmm", "fused_ff"):
        compiled = compiled_workloads[name]
        inputs = compiled.make_inputs(0)
        stalls = {
            config.register_banks: GPUSimulator(config)
            .time_block(compiled.kernel, compiled.grid, inputs, compiled.param_order)
            .bank_conflict_stalls
            for config in (A100, FEW_BANKS)
        }
        assert stalls[2] > stalls[4]


@pytest.mark.parametrize("name", ["bmm", "fused_ff"])
@settings(max_examples=10, deadline=None)
@given(moves=st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=3))
def test_swap_walks_agree_on_a_two_bank_register_file(name, moves, compiled_workloads):
    simulator = GPUSimulator(FEW_BANKS)
    compiled = compiled_workloads[name]
    inputs = compiled.make_inputs(0)
    kernel = compiled.kernel
    for pick, downward in moves:
        indices = kernel.memory_instruction_indices()
        index = indices[pick % len(indices)]
        block = kernel.block_of(index)
        neighbor = index + 1 if downward else index - 1
        if block[0] <= neighbor < block[1] and isinstance(kernel.lines[neighbor], Instruction):
            kernel = kernel.swap(index, neighbor)
    try:
        reference = reference_measure(
            simulator, kernel, compiled.grid, inputs, compiled.param_order
        )
    except Exception as exc:
        with pytest.raises(type(exc)):
            simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
        return
    produced = simulator.measure(kernel, compiled.grid, inputs, compiled.param_order)
    assert produced.time_ms == reference.time_ms
    assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)


# The first FFMA latches R2, R6 and R10 (two slots keep R6 and R10), the MOV
# overwrites cached R6, and the last FFMA reads R2, R6 and R14, all from one
# bank: a stale R6 entry would hide one of its conflicts.
REUSE_THEN_OVERWRITE = """
[B------:R-:W-:-:S01] FFMA R8, R2.reuse, R6.reuse, R10.reuse ;
[B------:R-:W-:-:S01] MOV R6, 0x2 ;
[B------:R-:W-:-:S01] FFMA R12, R2, R6, R14 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.mark.parametrize("config", [A100, FEW_BANKS], ids=["A100", "two-banks"])
def test_overwritten_register_leaves_the_reuse_cache(config):
    kernel = SassKernel.from_text(REUSE_THEN_OVERWRITE, KernelMetadata(name="reuse", num_warps=1))
    simulator = GPUSimulator(config)
    grid = GridConfig((1, 1, 1), 1)
    tensors = {"x": np.zeros(8, np.float16)}
    produced = simulator.measure(kernel, grid, tensors, ["x"])
    reference = reference_measure(simulator, kernel, grid, tensors, ["x"])
    assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)
