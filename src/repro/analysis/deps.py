"""Whole-program dependence graph of a SASS listing.

This is the seed-side half of the schedule verifier: a *second, independent*
implementation of the legality rules that :mod:`repro.core.masking` enforces
one swap at a time.  Where masking answers "may these two adjacent lines
swap?", the graph records every ordered pair of instructions whose relative
order carries meaning, so any whole schedule can be audited as a
dependence-preserving permutation without replaying the move sequence.

Edges are classified by the diagnostic rule they would fire when inverted
(:mod:`repro.analysis.diagnostics`):

* register dependences (RAW/WAR/WAW on general, predicate and uniform
  registers) — ``V101``..``V105``;
* scoreboard set/wait pairs — ``V201``;
* the Ampere LDGSTS shared-base hazard — ``V401``;
* conservative memory aliasing between accesses to the same address space —
  ``V402`` (warning severity: the action mask does not enforce this, so an
  inversion is advice, not an error).

Besides order edges the graph precomputes the quantitative constraints that
cannot be expressed as a pair ordering: minimum stall counts between every
fixed-latency producer and its consumers (Algorithm 1, using the seed's
effective stall table), and the stall slack in front of every denylisted
memory instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.cfg import ControlFlowInfo, build_cfg
from repro.analysis.stall_inference import StallInferenceResult, infer_stall_counts
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel
from repro.sass.opcodes import OpcodeCategory
from repro.sass.operands import (
    ConstantMemoryOperand,
    ImmediateOperand,
    MemoryOperand,
    RegisterOperand,
)
from repro.sim.executor import access_bytes

#: Alias-analysis sharpness accepted by :func:`build_dependence_graph`.
ALIAS_MODES = ("precise", "conservative")


@dataclass(frozen=True)
class DepEdge:
    """An ordered pair of seed listing indices: ``src`` must stay before ``dst``."""

    src: int
    dst: int
    rule: str
    detail: str


@dataclass(frozen=True)
class StallConstraint:
    """Minimum accumulated stall between a fixed-latency producer and a consumer.

    The constraint is satisfied when the sum of the stall counts of every line
    from ``producer`` (inclusive) up to ``consumer`` (exclusive) is at least
    ``min_stall`` — exactly the quantity Algorithm 1's backward scan computes.
    """

    producer: int
    consumer: int
    register: int
    min_stall: int


@dataclass
class DependenceGraph:
    """Result of :func:`build_dependence_graph`.

    It holds listing indices, not the kernel, so it fits every kernel object
    with the same listing.  The graph of a listing's shared verifier
    (:func:`repro.analysis.verify.seed_verifier`) is read-only, ``cfg`` and
    ``stalls`` included.
    """

    cfg: ControlFlowInfo
    stalls: StallInferenceResult
    #: ``(src, dst)`` -> edge; one (strongest) edge per ordered pair.
    edges: dict[tuple[int, int], DepEdge] = field(default_factory=dict)
    stall_constraints: list[StallConstraint] = field(default_factory=list)
    #: Denylisted listing index -> accumulated stall from its block start.
    denylist_slack: dict[int, int] = field(default_factory=dict)

    def iter_edges(self) -> Iterator[DepEdge]:
        return iter(self.edges.values())

    def edges_by_rule(self, rule: str) -> list[DepEdge]:
        return [edge for edge in self.edges.values() if edge.rule == rule]

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for edge in self.edges.values():
            counts[edge.rule] = counts.get(edge.rule, 0) + 1
        return {
            "edges": len(self.edges),
            "stall_constraints": len(self.stall_constraints),
            "denylisted": len(self.denylist_slack),
            **{f"edges_{rule}": count for rule, count in sorted(counts.items())},
        }


# ---------------------------------------------------------------------------
# Memory-space classification for the aliasing heuristic
# ---------------------------------------------------------------------------
_SHARED_CATEGORIES = {OpcodeCategory.LOAD_SHARED, OpcodeCategory.STORE_SHARED}
_GLOBAL_CATEGORIES = {OpcodeCategory.LOAD_GLOBAL, OpcodeCategory.STORE_GLOBAL}


def _memory_spaces(instr: Instruction) -> frozenset[str]:
    """Address spaces an instruction may touch (empty for non-memory)."""
    category = instr.info.category
    if category in _SHARED_CATEGORIES:
        return frozenset({"shared"})
    if category in _GLOBAL_CATEGORIES:
        return frozenset({"global"})
    if category is OpcodeCategory.ASYNC_COPY:
        # LDGSTS reads global and writes shared.
        return frozenset({"global", "shared"})
    if category is OpcodeCategory.ATOMIC:
        return frozenset({"shared"}) if instr.base_opcode == "ATOMS" else frozenset({"global"})
    return frozenset()


def _access_width(instr: Instruction) -> int:
    """Bytes touched per address, from the vector-width opcode modifier."""
    mods = instr.modifiers
    if "128" in mods:
        return 16
    if "64" in mods:
        return 8
    if "32" in mods:
        return 4
    if "16" in mods:
        return 2
    if "8" in mods:
        return 1
    return 4


def _base_key(op: MemoryOperand) -> tuple:
    """A hashable identity for the symbolic base address of a memory operand."""
    return (
        frozenset(op.base.registers()) if op.base is not None else frozenset(),
        op.uniform_base.index if op.uniform_base is not None else None,
        op.descriptor.index if op.descriptor is not None else None,
    )


# ---------------------------------------------------------------------------
# Pointer provenance (the precision layer behind ``may_alias``)
# ---------------------------------------------------------------------------
#: Symbolic address of a register at one program point: ``(root, offset)``.
#: ``root`` is ``("c0", slot)`` for a pointer loaded straight from constant
#: bank 0 (a kernel parameter — distinct slots are distinct tensor
#: allocations) or ``("anchor", line)`` for a value computed by a variable-
#: index address instruction at ``line``.  ``offset`` is the byte displacement
#: from the root when it is a compile-time literal, else ``None``.
_Provenance = tuple[tuple[str, int], int | None]


@dataclass(frozen=True)
class AliasContext:
    """Flow-sensitive facts that sharpen ``may_alias`` beyond base-key syntax.

    ``provenance`` maps ``(line, base_register)`` to the symbolic address the
    register holds when that line issues.  ``reaching`` maps ``(line, reg)``
    to the defining line of the value read there (absent = live-in) — after
    register repacking one *index* can carry several values, so base-key
    identity alone would conflate provably-distinct pointers.
    """

    provenance: dict[tuple[int, int], _Provenance]
    reaching: dict[tuple[int, int], int]

    def base_version(self, line: int, op: MemoryOperand) -> tuple:
        """A hashable value-identity for the base registers of ``op``."""
        if op.base is None:
            return ()
        return tuple(
            (reg, self.reaching.get((line, reg))) for reg in sorted(op.base.registers())
        )


def _constant_source(instr: Instruction) -> ConstantMemoryOperand | None:
    """The ``c[0][...]`` source of a parameter-load ``MOV`` / ``MOV.64``."""
    if instr.base_opcode != "MOV" or instr.predicate is not None:
        return None
    sources = [op for op in instr.operands[1:] if isinstance(op, ConstantMemoryOperand)]
    if len(sources) == 1 and sources[0].bank == 0:
        return sources[0]
    return None


def build_alias_context(kernel: SassKernel, cfg: ControlFlowInfo | None = None) -> AliasContext:
    """Forward per-block scan tracking where each pointer register came from.

    Patterns tracked (matching the Triton lowerer's address idioms, but stated
    over the listing so they survive scheduling and register repacking):

    * ``MOV/MOV.64 Rd, c[0][off]`` — parameter root ``("c0", off)``;
    * ``IADD3.64 Rd, Ra, imm, RZ`` — ``Ra``'s root displaced by ``imm``;
    * ``IMAD.WIDE Rd, ...`` — a fresh anchor root (variable index), so
      pointers *derived from the same anchor* by literal displacement can
      still be compared;
    * any other definition invalidates the register's provenance.

    The scan is block-local (state resets at block entry), which keeps it
    sound across loops: an in-loop pointer advance never leaks a stale
    offset into the next iteration's facts.
    """
    cfg = cfg or build_cfg(kernel)
    provenance: dict[tuple[int, int], _Provenance] = {}
    reaching: dict[tuple[int, int], int] = {}
    lines = kernel.lines
    for block in cfg.blocks:
        state: dict[int, _Provenance] = {}
        last_def: dict[int, int] = {}
        for index in range(block.start, block.end):
            line = lines[index]
            if not isinstance(line, Instruction):
                continue
            # Record facts for this line's reads before applying its defs.
            base_regs: set[int] = set()
            for mem in line.memory_operands():
                if mem.base is not None:
                    base_regs |= mem.base.registers()
            for reg in base_regs:
                if reg in state:
                    provenance[(index, reg)] = state[reg]
            for reg in line.read_registers() | base_regs:
                if reg in last_def:
                    reaching[(index, reg)] = last_def[reg]

            written = line.written_registers()
            for reg in written:
                state.pop(reg, None)
                last_def[reg] = index
            if line.predicate is not None:
                # A predicated def may or may not execute: provenance unknown.
                continue
            dest = next(
                (op for op in line.dest_operands() if isinstance(op, RegisterOperand)),
                None,
            )
            if dest is None or dest.is_rz:
                continue
            const = _constant_source(line)
            if const is not None:
                state[dest.index] = (("c0", const.offset), 0)
                continue
            if line.base_opcode == "IMAD" and "WIDE" in line.modifiers:
                state[dest.index] = (("anchor", index), 0)
                continue
            if line.base_opcode == "IADD3":
                sources = line.source_operands()
                reg_srcs = [
                    op for op in sources if isinstance(op, RegisterOperand) and not op.is_rz
                ]
                imm_srcs = [
                    op for op in sources
                    if isinstance(op, ImmediateOperand) and not op.is_float
                ]
                if len(reg_srcs) == 1 and len(imm_srcs) == 1:
                    src_prov = state.get(reg_srcs[0].index)
                    # In-place advance (Rd == Ra) already popped the state.
                    if reg_srcs[0].index == dest.index:
                        src_prov = None
                    if src_prov is not None:
                        root, offset = src_prov
                        displaced = (
                            offset + int(imm_srcs[0].value) if offset is not None else None
                        )
                        state[dest.index] = (root, displaced)
    return AliasContext(provenance=provenance, reaching=reaching)


def _footprint(a: Instruction, b: Instruction) -> int:
    """Sound per-warp byte footprint for interval disjointness proofs."""
    return max(access_bytes(a), access_bytes(b))


def _provably_disjoint(
    op_a: MemoryOperand,
    op_b: MemoryOperand,
    a: Instruction,
    b: Instruction,
    ctx: AliasContext | None,
    a_line: int,
    b_line: int,
) -> bool:
    """Whether two memory operands provably touch disjoint bytes."""
    # Descriptor-based disambiguation: distinct descriptors select distinct
    # apertures, so the accesses cannot overlap.
    if (
        op_a.descriptor is not None
        and op_b.descriptor is not None
        and op_a.descriptor.index != op_b.descriptor.index
    ):
        return True
    footprint = _footprint(a, b)
    if _base_key(op_a) == _base_key(op_b):
        # Same symbolic base.  Same *value* too (verified through reaching
        # definitions when available): base+offset interval analysis applies.
        if ctx is None or ctx.base_version(a_line, op_a) == ctx.base_version(b_line, op_b):
            return abs(op_a.offset - op_b.offset) >= footprint
    if ctx is None:
        return False
    prov_a = _resolve_provenance(op_a, ctx, a_line)
    prov_b = _resolve_provenance(op_b, ctx, b_line)
    if prov_a is None or prov_b is None:
        return False
    (root_a, off_a), (root_b, off_b) = prov_a, prov_b
    if root_a != root_b:
        # Distinct constant-bank slots are distinct tensor allocations;
        # anchor roots carry no such guarantee.
        return root_a[0] == "c0" and root_b[0] == "c0"
    if off_a is None or off_b is None:
        return False
    return abs((off_a + op_a.offset) - (off_b + op_b.offset)) >= footprint


def _resolve_provenance(
    op: MemoryOperand, ctx: AliasContext, line: int
) -> _Provenance | None:
    if op.base is None:
        return None
    return ctx.provenance.get((line, op.base.index))


def may_alias(
    a: Instruction,
    b: Instruction,
    *,
    mode: str = "precise",
    ctx: AliasContext | None = None,
    a_line: int = -1,
    b_line: int = -1,
) -> bool:
    """May-alias test between two memory instructions.

    Accesses in disjoint address spaces never alias; past that, the two modes
    differ in how a verdict is reached:

    ``conservative``
        A sound over-approximation: any two accesses in intersecting spaces
        may alias *unless* they share a symbolic base and their literal
        offsets are farther apart than the per-warp footprint.  This is the
        baseline the soundness suite (precise edges ⊆ conservative edges)
        and the bench's legal-move-growth metric compare against.

    ``precise`` (default)
        First tries to *prove* disjointness — descriptor disambiguation,
        constant-bank provenance, base+offset interval analysis (with
        reaching-definition value identity when an :class:`AliasContext` is
        supplied, so repacked registers carrying several values are not
        conflated).  Unproven pairs fall back to the historical base-key
        heuristic: same base value with offsets closer than the access width
        may alias; distinct symbolic bases are assumed disjoint
        (Triton-generated kernels derive distinct pointers for distinct
        tensors).  This backs the warning-severity ``V402`` rule, not an
        error.
    """
    if not (_memory_spaces(a) & _memory_spaces(b)):
        return False
    a_ops = a.memory_operands()
    b_ops = b.memory_operands()
    if not a_ops or not b_ops:
        # A memory instruction without an address operand: stay conservative.
        return True
    if mode == "conservative":
        for op_a in a_ops:
            for op_b in b_ops:
                same_key = _base_key(op_a) == _base_key(op_b)
                footprint = _footprint(a, b)
                if not (same_key and abs(op_a.offset - op_b.offset) >= footprint):
                    return True
        return False
    width = max(_access_width(a), _access_width(b))
    for op_a in a_ops:
        for op_b in b_ops:
            if _provably_disjoint(op_a, op_b, a, b, ctx, a_line, b_line):
                continue
            if _base_key(op_a) != _base_key(op_b):
                continue
            if ctx is not None and ctx.base_version(a_line, op_a) != ctx.base_version(
                b_line, op_b
            ):
                # Same index, different value: a repacked register.  Treat as
                # distinct symbolic bases, like the heuristic always has.
                continue
            if abs(op_a.offset - op_b.offset) < width:
                return True
    return False


def ldgsts_hazard(a: Instruction, b: Instruction) -> bool:
    """The Ampere LDGSTS shared-base hazard (sharp form).

    Two in-flight LDGSTS fills targeting the *same shared base register* with
    overlapping-or-contiguous per-warp footprints must not be reordered (the
    §5.7 hazard the paper identifies on real hardware).  Fills through
    provably-distinct shared bases, or through the same base at intervals
    farther apart than the footprint, carry no such hazard.  Unprovable cases
    (a fill with no shared-side address operand) stay blocked.

    This predicate is shared verbatim by the action masker
    (``repro.core.masking``) and the ``V401`` verifier rule so the two can
    never disagree.
    """
    if a.base_opcode != "LDGSTS" or b.base_opcode != "LDGSTS":
        return False
    shared_a = _shared_side(a)
    shared_b = _shared_side(b)
    if shared_a is None or shared_b is None:
        return True
    regs_a = frozenset(shared_a.base.registers()) if shared_a.base is not None else frozenset()
    regs_b = frozenset(shared_b.base.registers()) if shared_b.base is not None else frozenset()
    if regs_a != regs_b:
        return False
    return abs(shared_a.offset - shared_b.offset) <= _footprint(a, b)


def _shared_side(instr: Instruction) -> MemoryOperand | None:
    """The shared-memory destination operand of an LDGSTS (no descriptor)."""
    for op in instr.memory_operands():
        if op.descriptor is None:
            return op
    return None


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _LineFacts:
    """Per-instruction def/use facts, precomputed once for the pair scan."""

    index: int
    instr: Instruction
    writes: frozenset[int]
    reads: frozenset[int]
    pred_writes: frozenset[int]
    pred_reads: frozenset[int]
    ureg_writes: frozenset[int]
    ureg_reads: frozenset[int]
    sets: frozenset[int]
    waits: frozenset[int]
    is_ldgsts: bool
    mem_regs: frozenset[int]
    reads_memory: bool
    writes_memory: bool


def _facts(index: int, instr: Instruction) -> _LineFacts:
    mem_regs: set[int] = set()
    for op in instr.memory_operands():
        mem_regs |= op.registers()
    return _LineFacts(
        index=index,
        instr=instr,
        writes=instr.written_registers(),
        reads=instr.read_registers(),
        pred_writes=instr.written_predicates(),
        pred_reads=instr.read_predicates(),
        ureg_writes=instr.written_uniform_registers(),
        ureg_reads=instr.read_uniform_registers(),
        sets=instr.control.set_barriers,
        waits=instr.control.wait_mask,
        is_ldgsts=instr.base_opcode == "LDGSTS",
        mem_regs=frozenset(mem_regs),
        reads_memory=instr.info.reads_memory,
        writes_memory=instr.info.writes_memory,
    )


def _classify_pair(
    a: _LineFacts,
    b: _LineFacts,
    *,
    mode: str = "precise",
    ctx: AliasContext | None = None,
) -> tuple[str, str] | None:
    """Rule + detail for the ordered pair ``(a before b)``, or ``None``.

    The first matching rule wins; all error-severity rules demand the same
    thing (keep the order), so one edge per pair is enough.
    """
    raw = a.writes & b.reads
    if raw:
        return "V101", f"R{min(raw)} written above, read below"
    waw = a.writes & b.writes
    if waw:
        return "V103", f"R{min(waw)} written by both"
    war = a.reads & b.writes
    if war:
        return "V102", f"R{min(war)} read above, written below"
    if a.pred_writes & (b.pred_reads | b.pred_writes) or b.pred_writes & a.pred_reads:
        pred = min(a.pred_writes | b.pred_writes)
        return "V104", f"P{pred} dependence"
    if a.ureg_writes & (b.ureg_reads | b.ureg_writes) or b.ureg_writes & a.ureg_reads:
        ureg = min(a.ureg_writes | b.ureg_writes)
        return "V105", f"UR{ureg} dependence"
    set_wait = (a.sets & b.waits) | (b.sets & a.waits)
    if set_wait:
        return "V201", f"scoreboard slot {min(set_wait)}"
    if a.is_ldgsts and b.is_ldgsts:
        if mode == "conservative":
            hazard = bool(a.mem_regs & b.mem_regs)
        else:
            hazard = ldgsts_hazard(a.instr, b.instr)
        if hazard:
            shared = a.mem_regs & b.mem_regs
            where = f"R{min(shared)}" if shared else "unknown"
            return "V401", f"shared base {where}"
    if (a.writes_memory or b.writes_memory) and may_alias(
        a.instr, b.instr, mode=mode, ctx=ctx, a_line=a.index, b_line=b.index
    ):
        return "V402", "possibly overlapping addresses"
    return None


def build_dependence_graph(
    kernel: SassKernel,
    *,
    cfg: ControlFlowInfo | None = None,
    stalls: StallInferenceResult | None = None,
    alias_mode: str = "precise",
) -> DependenceGraph:
    """Build the full dependence graph of ``kernel`` (the seed listing).

    ``alias_mode`` selects the sharpness of the memory-alias rules (``V401``
    / ``V402``): ``"precise"`` (default) applies provenance and interval
    disambiguation; ``"conservative"`` reproduces the sound
    over-approximation the soundness suite compares against.
    """
    if alias_mode not in ALIAS_MODES:
        raise ValueError(f"alias_mode must be one of {ALIAS_MODES}, got {alias_mode!r}")
    cfg = cfg or build_cfg(kernel)
    stalls = stalls if stalls is not None else infer_stall_counts(kernel, cfg=cfg)
    graph = DependenceGraph(cfg=cfg, stalls=stalls)
    table = stalls.effective_table
    lines = kernel.lines
    ctx = build_alias_context(kernel, cfg) if alias_mode == "precise" else None

    for block in cfg.blocks:
        facts = [
            _facts(i, line)
            for i in range(block.start, block.end)
            if isinstance(line := lines[i], Instruction)
        ]
        # Synchronizing instructions end their block and never move; they are
        # boundary anchors in the verifier, not edge endpoints.
        movable = [f for f in facts if not f.instr.is_sync]

        # Pairwise order edges within the block.
        for upper_pos, a in enumerate(movable):
            for b in movable[upper_pos + 1 :]:
                classified = _classify_pair(a, b, mode=alias_mode, ctx=ctx)
                if classified is not None:
                    rule, detail = classified
                    graph.edges[(a.index, b.index)] = DepEdge(a.index, b.index, rule, detail)

        # Stall constraints: for every consumer, find the in-block defining
        # instruction of each read register; fixed-latency producers with a
        # known stall count yield a quantitative constraint (Algorithm 1).
        for pos, consumer in enumerate(facts):
            needed = set(consumer.reads)
            if not needed:
                continue
            accumulated = 0
            for producer in reversed(facts[:pos]):
                accumulated += producer.instr.control.stall
                defined = producer.writes & needed
                if defined:
                    needed -= defined
                    if producer.instr.is_fixed_latency:
                        min_stall = table.lookup(producer.instr.opcode)
                        if min_stall is not None:
                            graph.stall_constraints.append(
                                StallConstraint(
                                    producer=producer.index,
                                    consumer=consumer.index,
                                    register=min(defined),
                                    min_stall=min_stall,
                                )
                            )
                if not needed:
                    break

    # Stall slack ahead of denylisted instructions (their producers live
    # outside the block, so the slack in the seed is all we can hold on to).
    for index in stalls.denylist:
        block = cfg.block_of(index)
        if block is None:
            continue
        slack = sum(
            line.control.stall
            for i in range(block.start, index)
            if isinstance(line := lines[i], Instruction)
        )
        graph.denylist_slack[index] = slack

    return graph
