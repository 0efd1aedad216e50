"""Differential oracle: ``GPUSimulator.run`` against the frozen seed runner.

The output check of every verified schedule runs the fast functional engine:
compiled handlers with integer fast paths, tile rows moved by one strided
copy.  These tests hold it to :class:`repro.sim._reference_sm.ReferenceFunctionalRunner`,
the seed runner driving the seed executor, bit for bit: every output byte and
the dynamic instruction count, or the exception type and message.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.triton.kernels  # noqa: F401 - registers the workload specs
from repro.analysis.passes import run_pre_game_analysis
from repro.core.actions import ActionSpace
from repro.core.masking import ActionMasker
from repro.errors import ExecutionError
from repro.sass import KernelMetadata, SassKernel
from repro.sass.instruction import Instruction
from repro.sim import GPUSimulator, GridConfig
from repro.sim._reference_sm import reference_run
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

KERNELS = available_kernels()


@functools.lru_cache(maxsize=None)
def _workload(name):
    """The test-scale kernel, its inputs and its seed masker."""
    compiled = compile_spec(get_spec(name), scale="test")
    analysis = run_pre_game_analysis(compiled.kernel)
    space = ActionSpace(compiled.kernel, analysis.candidate_indices)
    return compiled, compiled.make_inputs(0), space, ActionMasker(space, analysis.stalls)


def _outcome(run):
    """What a functional run produced: outputs and instruction count, or its error."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))
    outputs = {
        name: (array.dtype, array.shape, array.tobytes()) for name, array in result.outputs.items()
    }
    return ("ran", result.dynamic_instructions, outputs)


def _assert_runs_like_the_reference(kernel, grid, tensors, param_order):
    produced = _outcome(lambda: GPUSimulator().run(kernel, grid, tensors, param_order))
    expected = _outcome(lambda: reference_run(kernel, grid, tensors, param_order))
    assert produced == expected
    return produced


# ---------------------------------------------------------------------------
# Fuzz: random schedules of every bundled kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(picks=st.lists(st.integers(0, 1_000), max_size=4))
def test_seed_legal_walks_run_like_the_reference(name, picks):
    """Walks of masker-legal moves, as the search takes them."""
    compiled, inputs, space, masker = _workload(name)
    kernel = compiled.kernel
    for pick in picks:
        legal = np.flatnonzero(masker.mask(kernel))
        if not legal.size:
            break
        kernel = kernel.swap(*space.target_indices(kernel, int(legal[pick % legal.size])))
    outcome = _assert_runs_like_the_reference(kernel, compiled.grid, inputs, compiled.param_order)
    assert outcome[0] == "ran"  # a legal schedule computes


# An illegal schedule may store garbage that overflows fp16; both engines warn.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
def test_arbitrary_swaps_run_like_the_reference(name, picks):
    """Adjacent in-block swaps, legal or not: stale reads, stand-in-free
    fallbacks and bad addresses must behave exactly as in the seed engine."""
    compiled, inputs, _, _ = _workload(name)
    kernel = compiled.kernel
    for pick in picks:
        lines = kernel.lines
        pairs = [
            i
            for start, end in kernel.basic_blocks()
            for i in range(start, end - 1)
            if isinstance(lines[i], Instruction) and isinstance(lines[i + 1], Instruction)
        ]
        i = pairs[pick % len(pairs)]
        kernel = kernel.swap(i, i + 1)
    _assert_runs_like_the_reference(kernel, compiled.grid, inputs, compiled.param_order)


def _single_warp(text, *, shared_memory_bytes=0):
    return SassKernel.from_text(
        text,
        KernelMetadata(name="oracle", num_warps=1, shared_memory_bytes=shared_memory_bytes),
    )


_ONE_BLOCK = GridConfig((1, 1, 1), 1)


# ---------------------------------------------------------------------------
# Integer ALU: every fast path, and values that must take the general path
# ---------------------------------------------------------------------------
# The lowering emits no LEA, LOP3 or IMNMX (their handlers have no fast
# path) and combines ISETP only with PT, so this listing covers what the
# fuzzing cannot.  P4 combines with the last of two source predicates.  R20
# adds 1 to a ``bool`` (skipped, as a predicate would be) and R22 to a numpy
# float32.
INTEGER_ALU = """
[B------:R-:W-:-:S10] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S10] MOV R4, 0x7 ;
[B------:R-:W-:-:S10] MOV R5, 0x3 ;
[B------:R-:W-:-:S10] ISETP.GT.AND P0, PT, R4, R5, PT ;
[B------:R-:W-:-:S10] ISETP.LT.AND P1, PT, R4, R5, PT ;
[B------:R-:W-:-:S10] IADD3 R6, R4, R5, 0x10 ;
[B------:R-:W-:-:S10] IMAD R7, R4, R5, R6 ;
[B------:R-:W-:-:S10] IMAD R8, R4, 0x5, RZ ;
[B------:R-:W-:-:S10] LEA R9, R4, R5, 0x2 ;
[B------:R-:W-:-:S10] SHF.R.U32 R10, R7, 0x2, RZ ;
[B------:R-:W-:-:S10] SHF.L.U32 R11, R4, R5, RZ ;
[B------:R-:W-:-:S10] LOP3.OR R12, R4, R5, RZ ;
[B------:R-:W-:-:S10] LOP3.XOR R13, R4, R5 ;
[B------:R-:W-:-:S10] LOP3.AND R14, R4, R5 ;
[B------:R-:W-:-:S10] ISETP.GT.AND P2, PT, R4, R5, P1 ;
[B------:R-:W-:-:S10] ISETP.GT.OR P3, PT, R5, R4, P0 ;
[B------:R-:W-:-:S10] SEL R15, 0x1, RZ, P2 ;
[B------:R-:W-:-:S10] SEL R16, 0x1, RZ, P3 ;
[B------:R-:W-:-:S10] ISETP.GT.AND P4, PT, R4, R5, P0, P1 ;
[B------:R-:W-:-:S10] SEL R23, 0x1, RZ, P4 ;
[B------:R-:W-:-:S10] IMNMX R17, R4, R5, P1 ;
[B------:R-:W-:-:S10] IMNMX R18, R4, R5, PT ;
[B------:R-:W-:-:S10] MOV R19, P0 ;
[B------:R-:W-:-:S10] IADD3 R20, R19, 0x1, RZ ;
[B------:R-:W0:-:S02] I2F R21, R4 ;
[B0-----:R-:W-:-:S10] IADD3 R22, R21, 0x1, RZ ;
"""
INTEGER_RESULTS = {
    6: 26, 7: 47, 8: 35, 9: 31, 10: 11, 11: 56, 12: 7, 13: 4, 14: 3,
    15: 0, 16: 1, 23: 0, 17: 7, 18: 3, 20: 1, 22: 8,
}


def test_integer_handlers_run_like_the_reference():
    # Each result is stored as the first float32 of its own 128-byte row.
    stores = "".join(
        f"[B------:R-:W-:-:S10] STG.E.32 [R2.64+{0x80 * slot:#x}], R{reg} ;\n"
        for slot, reg in enumerate(INTEGER_RESULTS)
    )
    kernel = _single_warp(INTEGER_ALU + stores + "[B------:R-:W-:-:S05] EXIT ;\n")
    tensors = {"out": np.zeros(32 * len(INTEGER_RESULTS), np.float32)}
    outcome = _assert_runs_like_the_reference(kernel, _ONE_BLOCK, tensors, ["out"])
    assert outcome[0] == "ran"
    stored = np.frombuffer(outcome[2]["out"][2], np.float32)[::32]
    assert stored.tolist() == list(INTEGER_RESULTS.values())


# ---------------------------------------------------------------------------
# Tile rows: the strided copy and the per-row path it falls back to
# ---------------------------------------------------------------------------

# 8 rows of 0x40 bytes, contiguous from the first tensor's base.
COPY_ROWS = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x170] ;
[B------:R-:W0:-:S02] LDG.E.128 R4, [R2.64], 0x40, 0x40 ;
[B0-----:R0:W-:-:S02] STG.E.128 [R6.64], R4 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_rows_split_across_two_adjacent_allocations():
    # Two 256-byte tensors sit back to back: rows 0-3 lie in ``a``, rows 4-7
    # in ``b``.  No one allocation holds the extent, so rows are read one by
    # one, each inside its own tensor.
    a = np.arange(128, dtype=np.float16)
    b = -np.arange(128, dtype=np.float16)
    tensors = {"a": a, "b": b, "out": np.zeros(256, np.float16)}
    outcome = _assert_runs_like_the_reference(
        _single_warp(COPY_ROWS), _ONE_BLOCK, tensors, ["a", "b", "out"]
    )
    assert outcome[0] == "ran"
    assert outcome[2]["out"][2] == np.concatenate([a, b]).tobytes()


LOAD_ROWS = """
[B------:R-:W-:-:S04] MOV R2, {address} ;
[B------:R-:W0:-:S02] {load} R4, [R2{wide}], 0x40, 0x40 ;
[B0-----:R-:W-:-:S05] EXIT ;
"""


@pytest.mark.parametrize(
    "load, address, wide, shared_memory_bytes",
    [("LDG.E.128", "c[0x0][0x160]", ".64", 0), ("LDS.128", "0x0", "", 0x1C0)],
    ids=["global", "shared"],
)
def test_out_of_bounds_last_row_raises_the_seed_error(load, address, wide, shared_memory_bytes):
    # 448 bytes: rows 0-6 fit, row 7 (bytes 448-511) is out of bounds.
    kernel = _single_warp(
        LOAD_ROWS.format(load=load, address=address, wide=wide),
        shared_memory_bytes=shared_memory_bytes,
    )
    tensors = {"x": np.zeros(224, np.float16)}
    outcome = _assert_runs_like_the_reference(kernel, _ONE_BLOCK, tensors, ["x"])
    assert outcome[:2] == ("raised", ExecutionError)
    assert "nbytes=64" in outcome[2]


# Rows of 0x40 bytes stored every 0x20 bytes: each row overwrites half of the
# one before, in global and in shared memory.
OVERLAPPING_STORE = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S04] MOV R10, c[0x0][0x170] ;
[B------:R-:W-:-:S04] MOV R12, 0x0 ;
[B------:R-:W0:-:S02] LDG.E.128 R4, [R2.64] ;
[B0-----:R0:W-:-:S02] STG.E.128 [R6.64], R4, 0x40, 0x20 ;
[B------:R1:W-:-:S02] STS.128 [R12], R4, 0x40, 0x20 ;
[B-1----:R-:W2:-:S02] LDS.128 R8, [R12] ;
[B--2---:R2:W-:-:S02] STG.E.128 [R10.64], R8 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_store_with_stride_shorter_than_its_row():
    x = np.arange(256, dtype=np.float16)
    tensors = {
        "x": x,
        "global_out": np.zeros(256, np.float16),
        "shared_out": np.zeros(256, np.float16),
    }
    kernel = _single_warp(OVERLAPPING_STORE, shared_memory_bytes=512)
    outcome = _assert_runs_like_the_reference(
        kernel, _ONE_BLOCK, tensors, ["x", "global_out", "shared_out"]
    )
    assert outcome[0] == "ran"
    # Row r holds elements 32r..32r+31 at element 16r; the last row wins.
    expected = np.zeros(256, np.float16)
    for row in range(8):
        expected[16 * row : 16 * row + 32] = x[32 * row : 32 * row + 32]
    assert outcome[2]["global_out"][2] == expected.tobytes()
    assert outcome[2]["shared_out"][2] == expected.tobytes()
