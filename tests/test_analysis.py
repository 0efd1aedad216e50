"""Tests for the pre-game static analysis passes (§3.2)."""

import pytest

from repro.analysis import (
    Resolution,
    build_cfg,
    build_embedding_tables,
    infer_stall_counts,
    run_pre_game_analysis,
)
from repro.arch.latency_table import StallCountTable, default_stall_table
from repro.sass import KernelMetadata, SassKernel

KERNEL = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R4, 0x10 ;
[B------:R-:W-:-:S05] IMAD.WIDE R6, R4, 0x2, R2 ;
[B------:R-:W2:-:S02] LDG.E R8, [R6.64] ;
.L_loop:
[B--2---:R-:W-:-:S04] FADD R10, R8, 1.0 ;
[B------:R-:W-:-:S05] HMUL2 R12, R10, 2.0 ;
[B------:R-:W-:-:S02] LDG.E R14, [R12.64] ;
[B------:R-:W-:-:S04] IADD3 R16, R14, 0x1, RZ ;
[B------:R0:W-:-:S02] STG.E [R6.64], R16 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.fixture
def kernel():
    return SassKernel.from_text(KERNEL, KernelMetadata(name="analysis_example"))


def test_cfg_blocks_split_at_labels_and_sync(kernel):
    cfg = build_cfg(kernel)
    assert ".L_loop" in cfg.label_positions
    # The label and the EXIT split the listing into at least two blocks.
    assert len(cfg.blocks) >= 2
    first_block = cfg.blocks[0]
    assert first_block.start == 0
    # Lines before the label and after it are never in the same block.
    assert not cfg.same_block(0, cfg.label_positions[".L_loop"] + 1)


def test_stall_inference_resolutions(kernel):
    result = infer_stall_counts(kernel)
    resolutions = {dep.resolution for dep in result.dependences}
    # The first LDG consumes IMAD.WIDE (in Table 1 -> db); the second LDG
    # consumes WEIRDOP (unknown -> inferred); the STG consumes live-in R6 in
    # its own block -> denylist.
    assert Resolution.TABLE in resolutions
    assert Resolution.INFERRED in resolutions
    assert Resolution.DENYLIST in resolutions
    assert result.inferred_table.lookup("HMUL2") is not None
    fractions = result.resolution_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    # Denylisted memory instructions are listing indices of instructions.
    for index in result.denylist:
        assert kernel.lines[index].is_actionable_memory


def test_inferred_value_is_safe_overestimate(kernel):
    result = infer_stall_counts(kernel)
    # The inferred stall for WEIRDOP equals the accumulated stall in the
    # original (valid) schedule, which is at least the real latency would be.
    assert result.inferred_table.lookup("HMUL2") >= 1


def test_stall_table_lookup_prefix_matching():
    table = default_stall_table()
    assert table.lookup("IMAD.WIDE.U32") == 5
    assert table.lookup("IMAD.MOV.U32") == 4
    assert table.lookup("IADD3.X") == 4
    assert table.lookup("TOTALLY.UNKNOWN") is None
    custom = StallCountTable()
    custom.record("FOO", 7)
    custom.record("FOO", 5)  # record keeps the minimum
    assert custom.lookup("FOO.BAR") == 5
    merged = table.merge(custom)
    assert merged.lookup("FOO") == 5 and merged.lookup("IADD3") == 4


def test_embedding_tables(kernel):
    tables = build_embedding_tables(kernel)
    assert tables.max_operands >= 3
    assert tables.num_operands > 0
    first = kernel.instructions[0].operands[0]
    index = tables.lookup(first)
    assert index is not None
    assert 0.0 <= tables.normalized_index(first) < 1.0


def test_pre_game_analysis_summary(kernel):
    analysis = run_pre_game_analysis(kernel)
    summary = analysis.summary()
    assert summary["kernel"] == "analysis_example"
    assert summary["memory_instructions"] >= 3
    assert summary["candidates"] == len(analysis.candidate_indices)
    assert all(index not in analysis.stalls.denylist for index in analysis.candidate_indices)
