"""Tests for the SASS line parser, instruction def/use sets and the kernel container."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.errors import SassError
from repro.sass import (
    Instruction,
    KernelMetadata,
    Label,
    SassKernel,
    parse_line,
    parse_listing,
)

EXAMPLE = """
// a comment-only line
.L_start:
[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;
[B0-----:R-:W-:-:S04] IADD3 R4, R0, 0x1, RZ ;   // consumer
[B------:R0:W-:-:S02] @!P4 STG.E [R6.64], R4 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_parse_listing_structure():
    lines = parse_listing(EXAMPLE)
    assert isinstance(lines[0], Label) and lines[0].name == ".L_start"
    assert len([l for l in lines if isinstance(l, Instruction)]) == 4


def test_parse_line_fields():
    instr = parse_line("[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ; // load")
    assert instr.base_opcode == "LDG"
    assert instr.modifiers == ("E",)
    assert instr.control.write_barrier == 2
    assert instr.comment == "load"
    assert instr.is_actionable_memory
    assert instr.written_registers() == frozenset({0})
    assert instr.read_registers() == frozenset({2, 3})


def test_guard_predicate_parsing():
    instr = parse_line("[B------:R-:W-:-:S01] @!PT LDS.128 R4, [0x100] ;")
    assert instr.predicate is not None and instr.predicate.negated and instr.predicate.is_pt
    assert instr.guarded_off


def test_dest_width_expansion():
    wide = parse_line("[B------:R-:W-:-:S05] IMAD.WIDE R14, R84, R8, c[0x0][0x160] ;")
    assert wide.written_registers() == frozenset({14, 15})
    vec = parse_line("[B------:R-:W2:-:S02] LDG.E.128 R4, [R2.64] ;")
    assert vec.written_registers() == frozenset({4, 5, 6, 7})
    store = parse_line("[B------:R0:W-:-:S02] STG.E.128 [R2.64], R8 ;")
    assert frozenset({8, 9, 10, 11}) <= store.read_registers()


def test_instruction_render_round_trip():
    lines = parse_listing(EXAMPLE)
    for line in lines:
        if isinstance(line, Instruction):
            assert parse_line(line.render()).render() == line.render()


def test_kernel_views_and_blocks():
    kernel = SassKernel.from_text(EXAMPLE, KernelMetadata(name="example"))
    assert len(kernel.instructions) == 4
    assert kernel.labels() == {".L_start": 0}
    assert kernel.memory_instruction_indices()  # LDG and STG
    blocks = kernel.basic_blocks()
    assert blocks and all(end > start for start, end in blocks)
    # EXIT is a sync instruction, so it terminates its block.
    last_block = blocks[-1]
    assert last_block[1] == len(kernel.lines)


def test_kernel_swap_and_immutability():
    kernel = SassKernel.from_text(EXAMPLE)
    idx = kernel.instruction_indices()
    swapped = kernel.swap(idx[0], idx[1])
    assert swapped is not kernel
    assert swapped.lines[idx[0]] == kernel.lines[idx[1]]
    assert kernel.lines[idx[0]] != swapped.lines[idx[0]]
    with pytest.raises(SassError):
        kernel.swap(0, idx[0])  # index 0 is a label
    with pytest.raises(SassError):
        kernel.swap(idx[0], 999)


def test_without_reuse_flags():
    text = "[B------:R-:W-:-:S04] FFMA R4, R6.reuse, R8, R4 ;"
    kernel = SassKernel.from_text(text)
    assert kernel.instructions[0].has_reuse_flag
    stripped = kernel.without_reuse_flags()
    assert not stripped.instructions[0].has_reuse_flag


def test_render_round_trip_through_parser():
    kernel = SassKernel.from_text(EXAMPLE, KernelMetadata(name="example"))
    again = SassKernel.from_text(kernel.render(), kernel.metadata)
    assert [l.render() for l in again.lines] == [l.render() for l in kernel.lines]


def _digest_of_fresh_renders(kernel):
    """The content digest as first defined: the name, then ``"\n"`` and the
    render of each line, rendered here from copies that have no cache."""
    hasher = hashlib.sha256()
    hasher.update(kernel.metadata.name.encode("utf-8"))
    for line in kernel.lines:
        hasher.update(b"\n")
        hasher.update(dataclasses.replace(line).render().encode("utf-8"))
    return hasher.hexdigest()


def test_cached_render_keeps_the_content_digest():
    kernel = SassKernel.from_text(EXAMPLE, KernelMetadata(name="example"))
    idx = kernel.instruction_indices()
    # Only the default form (with the control code) is cached.
    first = kernel.lines[idx[0]]
    assert "[B" not in first.render(with_control=False)
    assert first.render().startswith("[B------:R-:W2:Y:S02]")
    assert kernel.content_digest() == _digest_of_fresh_renders(kernel)

    swapped = kernel.swap(idx[0], idx[1])
    assert all("_cached_render" in line.__dict__ for line in swapped.instructions)
    assert swapped.content_digest() == _digest_of_fresh_renders(swapped)
    assert swapped.content_digest() != kernel.content_digest()

    clone = pickle.loads(pickle.dumps(first))
    assert "_cached_render" not in clone.__dict__
    assert clone.render() == first.render()
