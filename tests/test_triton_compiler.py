"""Tests for the mini-Triton compiler: IR, lowering, ptxas backend and the kernel library."""

import numpy as np
import pytest

from repro.analysis import build_cfg, infer_stall_counts
from repro.arch.latency_table import execution_latency
from repro.sass import Instruction
from repro.sim import GPUSimulator, compare_outputs
from repro.triton import (
    Autotuner,
    TileProgram,
    available_kernels,
    compile_lowered,
    compile_spec,
    get_spec,
    lower_program,
    render_ptx,
)

ALL_KERNELS = available_kernels()


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


# ---------------------------------------------------------------------------
# IR and lowering
# ---------------------------------------------------------------------------
def _tiny_program():
    p = TileProgram("tiny")
    x = p.param_ptr("x")
    out = p.param_ptr("out")
    pid = p.program_id(0)
    ptr = p.ptr_offset(x, p.mul_int(pid, 256), 2)
    optr = p.ptr_offset(out, p.mul_int(pid, 256), 2)
    frag = p.load_global(ptr, 512)
    result = p.ewise("mul", frag, 2.0)
    p.store_global(optr, result, 512)
    return p


def test_lowering_produces_valid_sass():
    lowered = lower_program(_tiny_program())
    assert lowered.param_names == ["x", "out"]
    opcodes = [line.base_opcode for line in lowered.lines if isinstance(line, Instruction)]
    assert "LDG" in opcodes and "STG" in opcodes and opcodes[-1] == "EXIT"
    assert lowered.num_registers > 4


def test_ir_render_and_ptx_render():
    program = _tiny_program()
    dump = program.render()
    assert "tile_program @tiny" in dump and "load_global" in dump
    ptx = render_ptx(program)
    assert ".visible .entry tiny" in ptx
    assert "ld.global" in ptx and "st.global" in ptx


def test_ptxas_stall_counts_respect_fixed_latencies():
    kernel = compile_spec(get_spec("mmLeakyReLu"), scale="test").kernel
    cfg = build_cfg(kernel)
    lines = kernel.lines
    # Within every basic block, a consumer of a fixed-latency producer is
    # separated by at least the producer's latency in accumulated stalls.
    for block in cfg.blocks:
        last_def: dict[int, tuple[int, int]] = {}
        acc = 0
        for i in range(block.start, block.end):
            line = lines[i]
            if not isinstance(line, Instruction):
                continue
            for reg in line.read_registers():
                if reg in last_def:
                    def_acc, latency = last_def[reg]
                    assert acc - def_acc >= latency, (
                        f"stall violation at {line.render()} (reg R{reg})"
                    )
            if line.is_fixed_latency:
                for reg in line.written_registers():
                    last_def[reg] = (acc, execution_latency(line.opcode))
            else:
                for reg in line.written_registers():
                    last_def.pop(reg, None)
            acc += line.control.stall


def test_ptxas_variable_latency_consumers_wait_on_barriers():
    kernel = compile_spec(get_spec("softmax"), scale="test").kernel
    lines = [l for l in kernel.lines if isinstance(l, Instruction)]
    pending: dict[int, int] = {}
    for line in lines:
        for reg in line.read_registers():
            if reg in pending:
                assert pending[reg] in line.control.wait_mask, line.render()
                del pending[reg]
        if not line.is_fixed_latency and line.control.write_barrier is not None:
            for reg in line.written_registers():
                pending[reg] = line.control.write_barrier


def test_reuse_flags_inserted_for_shared_sources():
    kernel = compile_spec(get_spec("fused_ff"), scale="test").kernel
    assert any(line.has_reuse_flag for line in kernel.instructions)


# ---------------------------------------------------------------------------
# The kernel library: functional correctness vs numpy references
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_matches_reference(name, simulator):
    spec = get_spec(name)
    compiled = compile_spec(spec, scale="test")
    inputs = compiled.make_inputs(0)
    expected = compiled.reference(inputs)
    run = compiled.run(simulator, inputs)
    for output_name, reference in expected.items():
        ok, max_err, _ = compare_outputs(run.outputs[output_name], reference)
        assert ok, f"{name}:{output_name} max abs err {max_err}"


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_has_schedulable_structure(name):
    compiled = compile_spec(get_spec(name), scale="test")
    kernel = compiled.kernel
    analysis = infer_stall_counts(kernel)
    memory_indices = kernel.memory_instruction_indices()
    assert memory_indices, "every evaluated kernel issues memory instructions"
    candidates = [i for i in memory_indices if i not in analysis.denylist]
    assert candidates, "the assembly game needs at least one actionable memory instruction"
    assert kernel.metadata.num_params == len(compiled.param_order)


def test_cubin_round_trip_preserves_schedule():
    compiled = compile_spec(get_spec("rmsnorm"), scale="test")
    from repro.sass import disassemble

    decoded = disassemble(compiled.cubin)
    assert [l.render() for l in decoded.lines] == [l.render() for l in compiled.kernel.lines]


# ---------------------------------------------------------------------------
# Autotuner
# ---------------------------------------------------------------------------
def test_autotuner_picks_a_valid_config_and_caches(simulator):
    tuner = Autotuner(simulator)
    spec = get_spec("mmLeakyReLu")
    result = tuner.tune(spec, scale="test")
    assert result.best_config in [dict(c) for c in spec.config_space]
    assert result.best_time_ms > 0
    assert result.trials and min(t for _, t in result.trials) == result.best_time_ms
    # Cached: the same object comes back without re-measuring.
    assert tuner.tune(spec, scale="test") is result
    compiled = tuner.compile_best(spec, scale="test")
    assert compiled.config == result.best_config
