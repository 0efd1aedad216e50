"""Tests for the GPU simulator: memory, execution semantics, timing and profiling."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.sass import KernelMetadata, SassKernel
from repro.sim import (
    GPUSimulator,
    GlobalMemory,
    GridConfig,
    MemoryRequest,
    MemoryTimingModel,
    SharedMemory,
    compare_outputs,
)
from repro.arch.ampere import A100


# ---------------------------------------------------------------------------
# Memory subsystem
# ---------------------------------------------------------------------------
def test_global_memory_alloc_upload_download():
    memory = GlobalMemory()
    alloc = memory.allocate("x", (4, 8), np.float16)
    data = np.arange(32, dtype=np.float16).reshape(4, 8)
    memory.upload(alloc, data)
    assert np.array_equal(memory.download(alloc), data)
    # Byte-level access sees the same values.
    values = memory.read_values(alloc.address, 8, np.float16)
    assert np.array_equal(values, data[0])


def test_global_memory_out_of_bounds():
    memory = GlobalMemory()
    alloc = memory.allocate("x", (4,), np.float16)
    with pytest.raises(ExecutionError):
        memory.read_bytes(alloc.address + alloc.nbytes, 16)


def test_shared_memory_bounds_and_round_trip():
    shared = SharedMemory(256)
    shared.write_values(0, np.arange(16, dtype=np.float16))
    assert np.array_equal(shared.read_values(0, 16, np.float16), np.arange(16, dtype=np.float16))
    with pytest.raises(ExecutionError):
        shared.read_bytes(250, 16)


def test_memory_timing_model_locality_and_bandwidth():
    model = MemoryTimingModel(A100)
    first = model.request_latency(MemoryRequest("global", 0x1000, 128), issue_cycle=0)
    repeat = model.request_latency(MemoryRequest("global", 0x1000, 128), issue_cycle=1000)
    assert repeat < first  # second access hits in the cache
    shared = model.request_latency(MemoryRequest("shared", 0x0, 128), issue_cycle=0)
    assert shared == A100.memory.shared_latency
    # A burst of large requests queues behind the DRAM bandwidth.
    model.reset()
    latencies = [
        model.request_latency(MemoryRequest("global", 0x100000 + i * 4096, 512), issue_cycle=0)
        for i in range(16)
    ]
    assert latencies[-1] > latencies[0]


# ---------------------------------------------------------------------------
# Execution semantics
# ---------------------------------------------------------------------------
ADD_ONE = """
[B------:R-:W1:-:S01] S2R R0, SR_CTAID.X ;
[B------:R-:W-:-:S04] MOV R1, 0x200 ;
[B-1----:R-:W-:-:S05] IMAD R2, R0, R1, RZ ;
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S05] IADD3 R8, R4, R2, RZ ;
[B------:R-:W-:-:S05] IADD3 R10, R6, R2, RZ ;
[B------:R-:W0:-:S02] LDG.E.128 R12, [R8.64] ;
[B------:R-:W2:-:S01] I2F R22, RZ ;
[B0-2---:R-:W-:-:S04] FADD R16, R12, 1.0 ;
[B------:R0:W-:-:S02] STG.E.128 [R10.64], R16 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def _add_one_kernel():
    return SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))


def test_functional_execution_matches_reference():
    sim = GPUSimulator()
    kernel = _add_one_kernel()
    x = np.arange(512, dtype=np.float16).reshape(2, 256)
    y = np.zeros_like(x)
    run = sim.run(kernel, GridConfig((2, 1, 1), 1), {"x": x, "y": y}, ["x", "y"], output_names=["y"])
    ok, max_err, _ = compare_outputs(run.outputs["y"], x.astype(np.float32) + 1)
    assert ok, max_err
    assert run.dynamic_instructions == 2 * len(kernel.instructions)


def test_under_stalled_schedule_reads_stale_value():
    # Remove the wait on the LDG's scoreboard barrier: the FADD now reads a
    # stale register and the output is wrong — the data-hazard behaviour the
    # dependency-based microbenchmarks (and probabilistic testing) rely on.
    broken_text = ADD_ONE.replace("[B0-2---:R-:W-:-:S04] FADD", "[B--2---:R-:W-:-:S04] FADD")
    kernel = SassKernel.from_text(broken_text, KernelMetadata(name="broken", num_warps=1))
    sim = GPUSimulator()
    x = np.arange(512, dtype=np.float16).reshape(2, 256)
    y = np.zeros_like(x)
    run = sim.run(kernel, GridConfig((2, 1, 1), 1), {"x": x, "y": y}, ["x", "y"], output_names=["y"])
    ok, _, _ = compare_outputs(run.outputs["y"], x.astype(np.float32) + 1)
    assert not ok


def test_measure_and_profile():
    sim = GPUSimulator()
    kernel = _add_one_kernel()
    x = np.arange(512, dtype=np.float16).reshape(2, 256)
    y = np.zeros_like(x)
    timing = sim.measure(kernel, GridConfig((2, 1, 1), 1), {"x": x, "y": y}, ["x", "y"])
    assert timing.block_cycles > 0 and timing.time_ms > 0
    assert timing.waves == 1
    profile = sim.profile(kernel, GridConfig((2, 1, 1), 1), {"x": x, "y": y}, ["x", "y"])
    rows = profile.workload_analysis_rows()
    assert rows["SM Busy (%)"] > 0
    assert profile.global_load_bytes == 512
    assert profile.global_store_bytes == 512
    chart = profile.memory_chart()
    assert chart["global_to_register_bytes"] == 512


def test_unknown_opcode_raises():
    text = "[B------:R-:W-:-:S04] FROBNICATE R0, R1 ;\n[B------:R-:W-:-:S05] EXIT ;"
    kernel = SassKernel.from_text(text, KernelMetadata(num_warps=1))
    sim = GPUSimulator()
    with pytest.raises(ExecutionError):
        sim.run(kernel, GridConfig((1, 1, 1), 1), {"x": np.zeros(8, np.float16)}, ["x"], output_names=["x"])


def test_measurement_noise_is_optional_and_bounded():
    from repro.sim import MeasurementConfig

    sim = GPUSimulator()
    kernel = _add_one_kernel()
    x = np.zeros((2, 256), dtype=np.float16)
    y = np.zeros_like(x)
    clean = sim.measure(kernel, GridConfig((2, 1, 1), 1), {"x": x, "y": y}, ["x", "y"])
    noisy = sim.measure(
        kernel,
        GridConfig((2, 1, 1), 1),
        {"x": x, "y": y},
        ["x", "y"],
        measurement=MeasurementConfig(noise_std=0.01, seed=1),
    )
    assert abs(noisy.time_ms - clean.time_ms) / clean.time_ms < 0.05


# ---------------------------------------------------------------------------
# Timing view: whole-program fallback and kept bounds checks
# ---------------------------------------------------------------------------
# The first loaded element picks the row that is read (LEA: x + idx[0] << 9)
# and guards the store (ISETP), so loaded values reach the cycle count.
LOAD_FED_ADDRESS = """
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S04] MOV R8, c[0x0][0x170] ;
[B------:R-:W0:-:S02] LDG.E.32 R10, [R4.64] ;
[B0-----:R-:W-:-:S05] LEA R12, R10, R6, 0x9 ;
[B------:R-:W-:-:S05] ISETP.GT.AND P0, PT, R10, 0x0, PT ;
[B------:R-:W1:-:S02] LDG.E.128 R16, [R12.64] ;
[B-1----:R-:W-:-:S04] FADD R20, R16, 1.0 ;
[B------:R0:W-:-:S02] @P0 STG.E.128 [R8.64], R20 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_load_fed_address_and_guard_fall_back_to_full_handlers():
    from repro.sim import decode_program
    from repro.sim._reference_sm import reference_measure

    kernel = SassKernel.from_text(LOAD_FED_ADDRESS, KernelMetadata(name="gather", num_warps=1))
    program = decode_program(kernel)
    assert program.timing_slice.load_fed
    assert program.timing_handlers == program.handlers

    sim = GPUSimulator()
    grid = GridConfig((1, 1, 1), 1)
    x = np.arange(8 * 256, dtype=np.float16).reshape(8, 256)
    timings = []
    for row in (0.0, 5.0):
        idx = np.full(32, row, dtype=np.float32)
        tensors = {"idx": idx, "x": x, "y": np.zeros((1, 256), np.float16)}
        order = ["idx", "x", "y"]
        produced = sim.measure(kernel, grid, tensors, order)
        reference = reference_measure(sim, kernel, grid, tensors, order)
        assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)
        assert produced.time_ms == reference.time_ms
        timings.append(produced.timing)
    # The loaded value really steers the timing: row 0 leaves the store guarded off.
    assert timings[0].predicated_off == 1 and timings[1].predicated_off == 0


DATA_ONLY_LDS = """
[B------:R-:W-:-:S04] MOV R2, {offset} ;
[B------:R-:W0:-:S02] LDS.128 R4, [R2]{layout} ;
[B0-----:R-:W-:-:S05] EXIT ;
"""

DATA_ONLY_STG = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S05] IADD3 R6, R2, {offset}, RZ ;
[B------:R0:W-:-:S02] STG.E.128 [R6.64], R8 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.mark.parametrize(
    "text, error",
    [
        (DATA_ONLY_LDS.format(offset="0x4000", layout=""), ExecutionError),
        # Strided rows: rows 0-3 fit, row 4 (offset 0x400) is the first past the end.
        (DATA_ONLY_LDS.format(offset="0x0", layout=", 0x40, 0x100"), ExecutionError),
        (DATA_ONLY_STG.format(offset="0x10000"), ExecutionError),
        # 15 in-bounds rows of 33 bytes: 495 bytes cannot be viewed as fp16.
        (DATA_ONLY_LDS.format(offset="0x0", layout=", 0x21, 0x40"), ValueError),
    ],
    ids=["lds", "lds-strided", "stg", "lds-odd-view"],
)
def test_elided_memory_access_still_raises(text, error):
    from repro.sim import decode_program
    from repro.sim._reference_sm import reference_measure

    kernel = SassKernel.from_text(
        text, KernelMetadata(name="oob", num_warps=1, shared_memory_bytes=1024)
    )
    program = decode_program(kernel)
    memory_records = [rec for rec in program.decoded if rec is not None and rec.is_memory]
    assert memory_records and all(program.timing_slice.elides(rec) for rec in memory_records)

    sim = GPUSimulator()
    grid = GridConfig((1, 1, 1), 1)
    tensors = {"x": np.zeros(1024, np.float16)}
    with pytest.raises(error) as reference:
        reference_measure(sim, kernel, grid, tensors, ["x"])
    with pytest.raises(error) as produced:
        sim.measure(kernel, grid, tensors, ["x"])
    if error is ExecutionError:  # the simulator's own bounds messages
        assert str(produced.value) == str(reference.value)


# Two fragments whose lengths cannot broadcast: 256 fp16 lanes + 128 fp16 lanes.
MISMATCHED_FRAGMENTS = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W0:-:S02] LDG.E.128 R4, [R2.64] ;
[B------:R-:W1:-:S02] LDG.E.64 R8, [R2.64] ;
[B01----:R-:W-:-:S04] FADD R12, R4, R8 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_elided_float_math_raises_where_fragments_do_not_broadcast():
    from repro.sim import decode_program
    from repro.sim._reference_sm import reference_measure

    kernel = SassKernel.from_text(MISMATCHED_FRAGMENTS, KernelMetadata(name="mismatch", num_warps=1))
    program = decode_program(kernel)
    fadd = next(rec for rec in program.decoded if rec is not None and rec.base_opcode == "FADD")
    assert program.timing_slice.elides(fadd)

    sim = GPUSimulator()
    grid = GridConfig((1, 1, 1), 1)
    tensors = {"x": np.zeros(1024, np.float16)}
    with pytest.raises(ValueError):
        reference_measure(sim, kernel, grid, tensors, ["x"])
    with pytest.raises(ValueError):
        sim.measure(kernel, grid, tensors, ["x"])


SLICED = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R3, 0x40 ;
[B------:R-:W-:-:S05] ISETP.GT.AND P0, PT, R2, 0x0, PT ;
[B------:R-:W0:-:S02] LDG.E.128 R4, [R2.64] ;
[B0-----:R-:W-:-:S04] FMUL R8, R4, 2.0 ;
[B------:R-:W-:-:S04] REDUX.MAX R10, R8, R3 ;
[B------:R0:W-:-:S02] @P0 STG.E.128 [R2.64], R8 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_timing_slice_keeps_addresses_guards_and_row_lengths():
    from repro.sim import decode_program

    kernel = SassKernel.from_text(SLICED, KernelMetadata(name="sliced", num_warps=1))
    timing_slice = decode_program(kernel).timing_slice
    # The address base, the guard (and what it reads) and REDUX's row length.
    assert {("r", 2), ("p", 0), ("r", 3)} <= timing_slice.keys
    # Loaded, scaled and reduced data never reach a cycle count.
    assert not {("r", 4), ("r", 8), ("r", 10)} & timing_slice.keys
    assert not timing_slice.load_fed
    # A swap keeps the instruction multiset, so the slice is shared, not rebuilt.
    swapped = kernel.swap(4, 5)
    assert decode_program(swapped).timing_slice is timing_slice


# SEL's condition comes from data (the row max, moved into P0) and picks a
# 256- or a 128-lane fragment; only the 256-lane one adds to R4 cleanly.
DATA_CHOSEN_SHAPE = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W0:-:S02] LDG.E.128 R4, [R2.64] ;
[B------:R-:W1:-:S02] LDG.E.64 R8, [R2.64] ;
[B01----:R-:W2:-:S04] REDUX.MAX R10, R4 ;
[B--2---:R-:W3:-:S04] MOV P0, R10 ;
[B---3--:R-:W4:-:S04] SEL R12, R4, R8, P0 ;
[B----4-:R-:W-:-:S04] FADD R14, R12, R4 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.mark.parametrize("fill", [1.0, 0.0], ids=["picks-256", "picks-128"])
def test_data_chosen_shape_keeps_its_condition_exact(fill):
    from repro.sim import decode_program
    from repro.sim._reference_sm import reference_measure

    kernel = SassKernel.from_text(DATA_CHOSEN_SHAPE, KernelMetadata(name="select", num_warps=1))
    assert ("p", 0) in decode_program(kernel).timing_slice.keys
    sim = GPUSimulator()
    grid = GridConfig((1, 1, 1), 1)
    tensors = {"x": np.full(1024, fill, np.float16)}
    try:
        reference = reference_measure(sim, kernel, grid, tensors, ["x"])
    except ValueError:
        with pytest.raises(ValueError):
            sim.measure(kernel, grid, tensors, ["x"])
        return
    produced = sim.measure(kernel, grid, tensors, ["x"])
    assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)


# Registers above R254 (RZ is R255) and the highest uniform register below
# URZ reach an address, a guard and the stored data.  The flat register file
# is sized from the listing, as the seed engine's dict-based file accepted any
# index.
HIGH_REGISTERS = """
[B------:R-:W-:-:S04] MOV R300, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R302, c[0x0][0x168] ;
[B------:R-:W-:-:S04] UMOV UR62, 0x200 ;
[B------:R-:W0:-:S02] LDG.E.128 R400, [R300.64+UR62] ;
[B------:R-:W-:-:S05] ISETP.GT.AND P6, PT, R302, 0x0, PT ;
[B0-----:R-:W-:-:S04] FADD R404, R400, 1.0 ;
[B------:R0:W-:-:S02] @P6 STG.E.128 [R302.64], R404 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_registers_above_r254_simulate_like_the_seed_engine():
    from repro.sim import decode_program
    from repro.sim._reference_sm import reference_measure

    kernel = SassKernel.from_text(HIGH_REGISTERS, KernelMetadata(name="high", num_warps=1))
    assert decode_program(kernel).register_counts == (405, 7, 63)

    sim = GPUSimulator()
    grid = GridConfig((1, 1, 1), 1)
    x = np.arange(512, dtype=np.float16).reshape(2, 256)
    tensors = {"x": x, "y": np.zeros((1, 256), np.float16)}
    produced = sim.measure(kernel, grid, tensors, ["x", "y"])
    reference = reference_measure(sim, kernel, grid, tensors, ["x", "y"])
    assert dataclasses.asdict(produced.timing) == dataclasses.asdict(reference.timing)
    assert produced.time_ms == reference.time_ms
    # UR62 offsets the load by one row; the guarded store writes it plus one.
    run = sim.run(kernel, grid, tensors, ["x", "y"], output_names=["y"])
    ok, max_err, _ = compare_outputs(run.outputs["y"], x[1:].astype(np.float32) + 1)
    assert ok, max_err
