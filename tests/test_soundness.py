"""Soundness suite for the precision dataflow layer.

The sharp alias analysis (``alias_mode="precise"``) is only allowed to
*remove* dependence edges it can prove redundant — on every workload, at
every scale, its edge set must be a subset of the conservative
over-approximation's.  Hypothesis additionally drives the subset property
over random straight-line kernels so it does not silently hold only for the
bundled seeds.

The second half checks the payoff is safe: every move the precise pruner
newly admits (strict-clean under ``precise``, findings under
``conservative``) must still pass the timing verifier's legality check *and*
produce bit-identical outputs to the seed schedule under differential
execution (:mod:`repro.analysis.funcdiff`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.analysis import ScheduleVerifier, run_pre_game_analysis
from repro.analysis.deps import ALIAS_MODES, build_dependence_graph
from repro.analysis.funcdiff import FunctionalDiffer
from repro.core.actions import ActionSpace
from repro.core.masking import ActionMasker
from repro.sass import ControlCode, Instruction, KernelMetadata, SassKernel
from repro.sass.operands import ImmediateOperand, MemoryOperand, RegisterOperand
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

WORKLOADS = available_kernels()

_COMPILED = {}


def _compiled(workload: str):
    if workload not in _COMPILED:
        _COMPILED[workload] = compile_spec(get_spec(workload), scale="test")
    return _COMPILED[workload]


def _edge_set(graph):
    return {(e.src, e.dst, e.rule) for e in graph.iter_edges()}


# ---------------------------------------------------------------------------
# Precise ⊆ conservative, on every bundled workload
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_precise_edges_subset_of_conservative(workload):
    kernel = _compiled(workload).kernel
    precise = _edge_set(build_dependence_graph(kernel, alias_mode="precise"))
    conservative = _edge_set(build_dependence_graph(kernel, alias_mode="conservative"))
    extra = precise - conservative
    assert not extra, f"precise mode invented edges on {workload}: {sorted(extra)[:5]}"


def test_alias_mode_is_validated():
    kernel = _compiled(WORKLOADS[0]).kernel
    assert ALIAS_MODES == ("precise", "conservative")
    with pytest.raises(ValueError):
        build_dependence_graph(kernel, alias_mode="psychic")


# ---------------------------------------------------------------------------
# ... and on random straight-line kernels (hypothesis)
# ---------------------------------------------------------------------------
_MEM_OPCODES = ["LDG.E", "STG.E", "LDG.E.128", "STG.E.128", "LDS.32", "STS.32"]
_ALU_OPCODES = ["MOV", "IADD3", "IMAD", "FADD", "FFMA"]


@st.composite
def memory_heavy_kernels(draw):
    """Straight-line kernels biased toward aliasing-relevant shapes.

    Base registers are drawn from a small pool and offsets from a handful of
    values around the per-warp footprint, so same-base / overlapping /
    provably-disjoint pairs all occur with useful frequency.
    """
    length = draw(st.integers(min_value=4, max_value=16))
    lines = []
    for _ in range(length):
        if draw(st.booleans()):
            opcode = draw(st.sampled_from(_MEM_OPCODES))
            base = RegisterOperand(draw(st.sampled_from([4, 4, 6, 8])), is64=True)
            offset = draw(st.sampled_from([0, 0x10, 0x200, 0x1000]))
            mem = MemoryOperand(base=base, offset=offset)
            reg = RegisterOperand(draw(st.integers(min_value=12, max_value=40)))
            operands = (reg, mem) if opcode.startswith("LD") else (mem, reg)
        else:
            opcode = draw(st.sampled_from(_ALU_OPCODES))
            dest = RegisterOperand(draw(st.integers(min_value=12, max_value=40)))
            src = RegisterOperand(draw(st.integers(min_value=12, max_value=40)))
            operands = (dest, src, ImmediateOperand(draw(st.integers(0, 64))))
        lines.append(Instruction(opcode=opcode, operands=operands, control=ControlCode(stall=2)))
    lines.append(Instruction("EXIT", control=ControlCode(stall=5)))
    return SassKernel(lines, KernelMetadata(name="soundness", num_warps=1))


@settings(max_examples=40, deadline=None)
@given(memory_heavy_kernels())
def test_precise_subset_on_random_kernels(kernel):
    precise = _edge_set(build_dependence_graph(kernel, alias_mode="precise"))
    conservative = _edge_set(build_dependence_graph(kernel, alias_mode="conservative"))
    assert precise <= conservative


# ---------------------------------------------------------------------------
# Newly-permitted moves stay safe (timing-legal AND bit-identical)
# ---------------------------------------------------------------------------
def _masked_candidates(compiled):
    """Every masker-valid single-swap candidate of the seed schedule."""
    kernel = compiled.kernel
    analysis = run_pre_game_analysis(kernel)
    space = ActionSpace(kernel, analysis.candidate_indices)
    masker = ActionMasker(space, analysis.stalls)
    return [
        kernel.swap(*space.target_indices(kernel, int(action)))
        for action in np.flatnonzero(masker.mask(kernel))
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_newly_permitted_moves_are_safe(workload):
    compiled = _compiled(workload)
    kernel = compiled.kernel
    candidates = _masked_candidates(compiled)
    if not candidates:
        pytest.skip("no masker-valid move at test scale")

    precise = ScheduleVerifier(kernel, alias_mode="precise")
    conservative = ScheduleVerifier(kernel, alias_mode="conservative")
    newly_permitted = [
        candidate
        for candidate in candidates
        if not precise.verify(candidate).diagnostics
        and conservative.verify(candidate).diagnostics
    ]
    if not newly_permitted:
        return  # nothing sharpened away on this workload — vacuously safe

    differ = FunctionalDiffer.from_compiled(compiled)
    # The first few suffice: differential execution is the expensive part and
    # every newly-permitted move exercises the same dissolved V402 edges.
    for candidate in newly_permitted[:3]:
        assert precise.is_legal(candidate)
        result = differ.diff(kernel, candidate, trials=1)
        assert result.passed, result.message


def test_sharpening_grows_a_known_move_set():
    """At least one bundled workload must actually benefit from precision.

    Guards against the precise mode silently degrading into the conservative
    one (subset tests alone would still pass).
    """
    for workload in ("bmm", "fused_ff", "mmLeakyReLu"):
        compiled = _compiled(workload)
        candidates = _masked_candidates(compiled)
        precise = ScheduleVerifier(compiled.kernel, alias_mode="precise")
        conservative = ScheduleVerifier(compiled.kernel, alias_mode="conservative")
        precise_clean = sum(not precise.verify(c).diagnostics for c in candidates)
        conservative_clean = sum(not conservative.verify(c).diagnostics for c in candidates)
        if precise_clean > conservative_clean:
            return
    pytest.fail("precise alias mode admitted no extra strict-clean move anywhere")
