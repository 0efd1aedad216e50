"""Liveness and register-pressure analysis (precision dataflow layer).

The PR-6 verifier reasons about *dependences* between instructions; nothing in
it can prove a register fragment **dead**.  This module adds the missing
backward live-range dataflow over the existing CFG (``cfg.py``) so the
toolchain can answer two new questions:

1. *How many registers does this listing actually need?*  — the
   :class:`PressureReport` (peak live registers vs. the R240 budget, free
   fragments at the peak, dead definitions), surfaced through the lint CLI's
   ``--pressure`` flag and the V6xx rule family.
2. *Which condemned live ranges can be renamed on top of each other?* — the
   dead-fragment reuse pass (:func:`repack_registers`), run by the Triton
   lowerer when a kernel overflows the register file.  The bump allocator in
   ``triton/lowering.py`` never reuses an index, so wide shapes exhaust R240
   long before their true peak pressure does; interval-based repacking is what
   unlocks the paper-scale shapes (e.g. ``layernorm-residual`` past
   hidden=1536).

Register keys are tagged with their space (general / predicate / uniform) so
liveness can never confuse ``R2`` with ``P2`` or ``UR2`` — the same space
partition ``deps.py`` uses for dependence edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.cfg import ControlFlowInfo, build_cfg
from repro.errors import SassError
from repro.sass.instruction import Instruction, Label
from repro.sass.kernel import SassKernel
from repro.sass.operands import (
    MemoryOperand,
    Operand,
    PT_INDEX,
    RZ_INDEX,
    RegisterOperand,
    URZ_INDEX,
)

#: Registers available to a single thread on sm_80 (R0-R239; R240-R254 are
#: reserved by the ABI on real chips, RZ is R255).  The lowerer and the
#: pressure report both budget against this.
REGISTER_BUDGET = 240

#: Lowest register index the repack pass may assign.  R0-R3 hold the thread /
#: block indices materialised by the kernel prologue and are treated as
#: pinned, matching ``RegisterAllocator(first_reg=4)``.
FIRST_ALLOCATABLE = 4

#: A space-tagged register key: ``("r", 5)`` is R5, ``("p", 0)`` is P0,
#: ``("ur", 4)`` is UR4.  The zero registers (RZ / PT / URZ) are never live.
RegKey = tuple[str, int]

_SPACE_GENERAL = "r"
_SPACE_PREDICATE = "p"
_SPACE_UNIFORM = "ur"


def line_defs(instr: Instruction) -> frozenset[RegKey]:
    """Space-tagged registers *defined* by ``instr``.

    Uses the same wide-destination expansion as
    ``Instruction.written_registers`` so liveness and dependence analysis see
    the identical def set.
    """
    keys: set[RegKey] = set()
    for reg in instr.written_registers():
        if reg != RZ_INDEX:
            keys.add((_SPACE_GENERAL, reg))
    for pred in instr.written_predicates():
        if pred != PT_INDEX:
            keys.add((_SPACE_PREDICATE, pred))
    for ureg in instr.written_uniform_registers():
        if ureg != URZ_INDEX:
            keys.add((_SPACE_UNIFORM, ureg))
    return frozenset(keys)


def line_uses(instr: Instruction) -> frozenset[RegKey]:
    """Space-tagged registers *used* by ``instr`` (guard predicate included)."""
    keys: set[RegKey] = set()
    for reg in instr.read_registers():
        if reg != RZ_INDEX:
            keys.add((_SPACE_GENERAL, reg))
    for pred in instr.read_predicates():
        if pred != PT_INDEX:
            keys.add((_SPACE_PREDICATE, pred))
    for ureg in instr.read_uniform_registers():
        if ureg != URZ_INDEX:
            keys.add((_SPACE_UNIFORM, ureg))
    return frozenset(keys)


def _slot_defs(instr: Instruction) -> frozenset[RegKey]:
    """Registers defined at *register-slot* granularity.

    Like :func:`line_defs` but without ``.64`` pair adjacency or the
    ``.128``-style vector-width expansion: the functional engine stores a
    whole value (64-bit pointer or vector fragment) in its *base* slot, so
    the neighbouring indices a real GPU would occupy are never written.  The
    repack pass analyses at this granularity — with the expansion, a pointer
    pair's high half looks used-before-defined, which would wrongly mark it
    live-at-entry and pin its whole cluster in place.  Clustering
    (:func:`_operand_groups`) still keeps the covering index range together,
    so the dependence analysis' expanded view stays inside the moved range.
    """
    keys: set[RegKey] = set()
    for op in instr.dest_operands():
        if isinstance(op, RegisterOperand) and not op.is_rz:
            keys.add((_SPACE_GENERAL, op.index))
    for pred in instr.written_predicates():
        if pred != PT_INDEX:
            keys.add((_SPACE_PREDICATE, pred))
    for ureg in instr.written_uniform_registers():
        if ureg != URZ_INDEX:
            keys.add((_SPACE_UNIFORM, ureg))
    return frozenset(keys)


def _slot_uses(instr: Instruction) -> frozenset[RegKey]:
    """Registers used at register-slot granularity (see :func:`_slot_defs`)."""
    keys: set[RegKey] = set()
    for op in instr.source_operands():
        if isinstance(op, RegisterOperand) and not op.is_rz:
            keys.add((_SPACE_GENERAL, op.index))
    for mem in instr.memory_operands():
        if mem.base is not None and not mem.base.is_rz:
            keys.add((_SPACE_GENERAL, mem.base.index))
    for pred in instr.read_predicates():
        if pred != PT_INDEX:
            keys.add((_SPACE_PREDICATE, pred))
    for ureg in instr.read_uniform_registers():
        if ureg != URZ_INDEX:
            keys.add((_SPACE_UNIFORM, ureg))
    return frozenset(keys)


@dataclass(frozen=True)
class LivenessInfo:
    """Per-line liveness facts for one kernel.

    ``live_in[i]`` / ``live_out[i]`` are the registers live immediately
    before / after line ``i`` issues.  Label lines carry the live set of the
    block they open.  ``dead_definitions`` lists ``(line, key)`` pairs whose
    definition is never observed by any later use on any path.
    """

    live_in: tuple[frozenset[RegKey], ...]
    live_out: tuple[frozenset[RegKey], ...]
    dead_definitions: tuple[tuple[int, RegKey], ...]


def compute_liveness(
    kernel: SassKernel,
    cfg: ControlFlowInfo | None = None,
    *,
    expand_groups: bool = True,
) -> LivenessInfo:
    """Backward live-range dataflow to a fixed point over the CFG.

    Predicated definitions are treated as *weak* (they do not kill): a
    ``@P0 MOV R4, ...`` leaves the fall-through value of R4 observable, so R4
    stays live across it.  Loop-carried ranges are covered by the block-level
    fixed point: a register live-in at a loop header stays live through the
    whole body, including lines textually after its last use.

    ``expand_groups=True`` (the default) uses the same wide-destination /
    vector-store expansion as the dependence analysis; ``False`` analyses at
    register-slot granularity, matching the functional engine's one-slot-per-
    fragment storage model (used by the repack pass).
    """
    cfg = cfg or build_cfg(kernel)
    lines = kernel.lines
    num_lines = len(lines)
    defs: list[frozenset[RegKey]] = [frozenset()] * num_lines
    uses: list[frozenset[RegKey]] = [frozenset()] * num_lines
    strong: list[bool] = [False] * num_lines
    for index, line in enumerate(lines):
        if isinstance(line, Instruction):
            defs[index] = line_defs(line) if expand_groups else _slot_defs(line)
            uses[index] = line_uses(line) if expand_groups else _slot_uses(line)
            strong[index] = line.predicate is None

    # Block-level gen/kill, then iterate to a fixed point.
    block_live_in: dict[int, frozenset[RegKey]] = {b.index: frozenset() for b in cfg.blocks}
    block_live_out: dict[int, frozenset[RegKey]] = dict(block_live_in)
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            out: set[RegKey] = set()
            for succ in cfg.successors.get(block.index, ()):  # type: ignore[union-attr]
                out |= block_live_in[succ]
            live = set(out)
            for index in range(block.end - 1, block.start - 1, -1):
                if strong[index]:
                    live -= defs[index]
                live |= uses[index]
            live_in = frozenset(live)
            live_out = frozenset(out)
            if live_in != block_live_in[block.index] or live_out != block_live_out[block.index]:
                block_live_in[block.index] = live_in
                block_live_out[block.index] = live_out
                changed = True

    live_in_lines: list[frozenset[RegKey]] = [frozenset()] * num_lines
    live_out_lines: list[frozenset[RegKey]] = [frozenset()] * num_lines
    dead: list[tuple[int, RegKey]] = []
    for block in cfg.blocks:
        live = set(block_live_out[block.index])
        for index in range(block.end - 1, block.start - 1, -1):
            live_out_lines[index] = frozenset(live)
            for key in defs[index]:
                if key not in live:
                    dead.append((index, key))
            if strong[index]:
                live -= defs[index]
            live |= uses[index]
            live_in_lines[index] = frozenset(live)
    dead.sort()
    return LivenessInfo(
        live_in=tuple(live_in_lines),
        live_out=tuple(live_out_lines),
        dead_definitions=tuple(dead),
    )


@dataclass(frozen=True)
class PressureReport:
    """Register-pressure summary for one kernel listing.

    ``peak`` is the maximum number of simultaneously-occupied general-purpose
    registers (a register occupied at a line = live after it, or defined by
    it — a dead definition still consumes its slot at the defining point).
    ``free_fragments`` are the maximal runs of allocatable-but-free indices at
    the peak line: the raw material the dead-fragment reuse pass packs into.
    """

    name: str
    peak: int
    peak_line: int
    budget: int
    allocated: int
    dead_definitions: tuple[tuple[int, str], ...]
    free_fragments: tuple[tuple[int, int], ...]

    @property
    def headroom(self) -> int:
        """Registers of slack below the budget (negative when over)."""
        return self.budget - self.peak

    @property
    def fits(self) -> bool:
        return self.peak <= self.budget

    def render(self) -> str:
        status = "fits" if self.fits else "OVER BUDGET"
        frags = ", ".join(f"R{start}+{length}" for start, length in self.free_fragments[:6])
        lines = [
            f"pressure {self.name}: peak {self.peak} live registers at line "
            f"{self.peak_line} (budget {self.budget}, headroom {self.headroom}, {status})",
            f"  allocated watermark: {self.allocated} registers",
            f"  dead definitions: {len(self.dead_definitions)}",
        ]
        if frags:
            lines.append(f"  free fragments at peak: {frags}")
        return "\n".join(lines)


def pressure_report(
    kernel: SassKernel,
    *,
    name: str | None = None,
    budget: int = REGISTER_BUDGET,
    cfg: ControlFlowInfo | None = None,
    liveness: LivenessInfo | None = None,
) -> PressureReport:
    """Compute the :class:`PressureReport` for ``kernel``."""
    info = liveness or compute_liveness(kernel, cfg)
    peak = 0
    peak_line = 0
    peak_occupied: frozenset[int] = frozenset()
    allocated = 0
    for index, line in enumerate(kernel.lines):
        if not isinstance(line, Instruction):
            continue
        occupied = set(idx for space, idx in info.live_out[index] if space == _SPACE_GENERAL)
        occupied |= set(idx for space, idx in line_defs(line) if space == _SPACE_GENERAL)
        if occupied:
            allocated = max(allocated, max(occupied) + 1)
        if len(occupied) > peak:
            peak = len(occupied)
            peak_line = index
            peak_occupied = frozenset(occupied)

    fragments: list[tuple[int, int]] = []
    if allocated > FIRST_ALLOCATABLE:
        run_start: int | None = None
        for idx in range(FIRST_ALLOCATABLE, allocated):
            if idx not in peak_occupied:
                if run_start is None:
                    run_start = idx
            elif run_start is not None:
                fragments.append((run_start, idx - run_start))
                run_start = None
        if run_start is not None:
            fragments.append((run_start, allocated - run_start))

    dead = tuple(
        (line, f"{space.upper()}{idx}" if space != _SPACE_GENERAL else f"R{idx}")
        for line, (space, idx) in info.dead_definitions
    )
    return PressureReport(
        name=name or kernel.metadata.name,
        peak=peak,
        peak_line=peak_line,
        budget=budget,
        allocated=allocated,
        dead_definitions=dead,
        free_fragments=tuple(fragments),
    )


# ----------------------------------------------------------------------
# Dead-fragment reuse (register repacking)
# ----------------------------------------------------------------------
class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, item: int) -> int:
        parent = self._parent.setdefault(item, item)
        if parent != item:
            parent = self.find(parent)
            self._parent[item] = parent
        return parent

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def _operand_groups(instr: Instruction) -> Iterable[frozenset[int]]:
    """Register groups that must stay contiguous under renaming.

    Mirrors the wide-destination and vector-store expansions of
    ``Instruction.written_registers`` / ``read_registers`` so the repack pass
    can never split a register group the dependence analysis considers one
    value.
    """
    width = instr._dest_width_registers()
    store_width = width if instr.info.writes_memory else 1
    dest_ids = set(id(op) for op in instr.dest_operands())
    for op in instr.operands:
        if isinstance(op, MemoryOperand):
            if op.base is not None and not op.base.is_rz:
                yield frozenset(r for r in op.base.registers() if r != RZ_INDEX)
            continue
        if not isinstance(op, RegisterOperand) or op.is_rz:
            continue
        group = set(op.registers())
        if id(op) in dest_ids and width > 1:
            group |= {op.index + i for i in range(width)}
        elif id(op) not in dest_ids and store_width > 1 and not op.is64:
            group |= {op.index + i for i in range(store_width)}
        yield frozenset(r for r in group if r != RZ_INDEX)


def _rename_operand(op: Operand, mapping: Mapping[int, int]) -> Operand:
    """Apply the register index map to one operand (registers and memory bases)."""
    from dataclasses import replace as _replace

    if isinstance(op, RegisterOperand):
        if not op.is_rz and op.index in mapping and mapping[op.index] != op.index:
            return _replace(op, index=mapping[op.index])
        return op
    if isinstance(op, MemoryOperand) and op.base is not None:
        base = _rename_operand(op.base, mapping)
        if base is not op.base:
            return _replace(op, base=base)
        return op
    return op


@dataclass(frozen=True)
class RepackResult:
    """Outcome of :func:`repack_registers`."""

    lines: tuple[Instruction | Label, ...]
    #: Highest register index used after renaming (-1 for an empty kernel).
    high_watermark: int
    #: Number of register clusters that moved (0 = listing returned as-is).
    moved_clusters: int


def repack_registers(
    lines: Sequence[Instruction | Label],
    *,
    first_reg: int = FIRST_ALLOCATABLE,
    name: str = "repack",
) -> RepackResult:
    """Rename condemned live ranges so dead fragments are reused.

    The lowerer's bump allocator assigns every value a fresh index, so a
    listing's watermark is its *total* allocation, not its peak pressure.
    This pass computes live intervals per general-purpose register (linear-scan
    style: one conservative ``[first occurrence, last live]`` interval each,
    which is sound for loop-carried ranges because liveness extends a range to
    the bottom of any loop body it is live through), clusters registers that
    must stay contiguous (is64 pairs, wide destinations, vector-store data
    groups, shared operands), and renames whole clusters downward into the
    lowest parity-compatible free range.

    Registers below ``first_reg`` (thread/block indices) are pinned, as is any
    register live into the entry block.  Relative offsets inside a cluster are
    preserved exactly and the cluster's base parity is kept, so is64
    aligned-pair semantics survive renaming.
    """
    kernel = SassKernel(lines)
    cfg = build_cfg(kernel)
    info = compute_liveness(kernel, cfg, expand_groups=False)

    # Live interval per general register: [first textual occurrence, last
    # textually-live line].
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    uf = _UnionFind()
    for index, line in enumerate(kernel.lines):
        if not isinstance(line, Instruction):
            continue
        touched: set[int] = set()
        for group in _operand_groups(line):
            regs = sorted(group)
            for a, b in zip(regs, regs[1:]):
                uf.union(a, b)
            touched |= group
        for space, idx in info.live_out[index] | info.live_in[index]:
            if space == _SPACE_GENERAL:
                touched.add(idx)
        for reg in touched:
            starts.setdefault(reg, index)
            ends[reg] = index

    if not starts:
        return RepackResult(lines=tuple(lines), high_watermark=-1, moved_clusters=0)

    pinned: set[int] = set(reg for reg in starts if reg < first_reg)
    entry_block = cfg.blocks[0] if cfg.blocks else None
    if entry_block is not None:
        first_instr = next(
            (i for i in range(entry_block.start, entry_block.end)
             if isinstance(kernel.lines[i], Instruction)),
            None,
        )
        if first_instr is not None:
            for space, idx in info.live_in[first_instr]:
                if space == _SPACE_GENERAL:
                    pinned.add(idx)

    # Clusters: connected components of the contiguity relation.  Each cluster
    # is renamed as one block, so it must itself occupy a contiguous index
    # range (true by construction: unions only merge overlapping /
    # consecutive operand groups, and we widen to the covering range).
    clusters: dict[int, list[int]] = {}
    for reg in starts:
        clusters.setdefault(uf.find(reg), []).append(reg)

    @dataclass
    class _Cluster:
        lo: int
        hi: int
        start: int
        end: int
        pinned: bool
        new_lo: int = -1

    cluster_list: list[_Cluster] = []
    for members in clusters.values():
        lo, hi = min(members), max(members)
        covering = range(lo, hi + 1)
        cluster_list.append(
            _Cluster(
                lo=lo,
                hi=hi,
                start=min(starts.get(r, len(lines)) for r in covering if r in starts),
                end=max(ends.get(r, -1) for r in covering if r in ends),
                pinned=any(r in pinned for r in covering),
            )
        )
    # Registers inside a covering range that were never seen standalone still
    # belong to the cluster; fold any cluster overlapping another's range.
    cluster_list.sort(key=lambda c: c.lo)
    merged: list[_Cluster] = []
    for cluster in cluster_list:
        if merged and cluster.lo <= merged[-1].hi:
            prev = merged[-1]
            prev.hi = max(prev.hi, cluster.hi)
            prev.start = min(prev.start, cluster.start)
            prev.end = max(prev.end, cluster.end)
            prev.pinned = prev.pinned or cluster.pinned
        else:
            merged.append(cluster)

    # Linear scan over cluster intervals, lowest-index-first placement.
    active: list[_Cluster] = []
    mapping: dict[int, int] = {}
    moved = 0
    for cluster in sorted(merged, key=lambda c: (c.start, c.lo)):
        if cluster.pinned:
            cluster.new_lo = cluster.lo
            active.append(cluster)
            for reg in range(cluster.lo, cluster.hi + 1):
                mapping[reg] = reg
            continue
        active = [c for c in active if c.end >= cluster.start]
        size = cluster.hi - cluster.lo + 1
        parity = cluster.lo % 2
        candidate = first_reg + ((parity - first_reg) % 2)
        taken = sorted(
            (c.new_lo, c.new_lo + (c.hi - c.lo)) for c in active if c.new_lo >= 0
        )
        for lo_t, hi_t in taken:
            if candidate + size - 1 < lo_t:
                break
            if candidate <= hi_t:
                candidate = hi_t + 1
                candidate += (parity - candidate) % 2
        cluster.new_lo = candidate
        if candidate != cluster.lo:
            moved += 1
        active.append(cluster)
        delta = cluster.new_lo - cluster.lo
        for reg in range(cluster.lo, cluster.hi + 1):
            mapping[reg] = reg + delta

    if not moved:
        watermark = max(ends)
        return RepackResult(lines=tuple(lines), high_watermark=watermark, moved_clusters=0)

    watermark = max(mapping.values())
    _audit_repack(info, mapping, name)
    new_lines: list[Instruction | Label] = []
    for line in lines:
        if not isinstance(line, Instruction):
            new_lines.append(line)
            continue
        new_ops = tuple(_rename_operand(op, mapping) for op in line.operands)
        if all(new is old for new, old in zip(new_ops, line.operands)):
            new_lines.append(line)
        else:
            new_lines.append(line.with_operands(new_ops))
    return RepackResult(
        lines=tuple(new_lines), high_watermark=watermark, moved_clusters=moved
    )


def _audit_repack(info: LivenessInfo, mapping: Mapping[int, int], name: str) -> None:
    """Self-check: the rename must be injective on every live set.

    Two registers that are simultaneously live may never map to the same
    index — that would silently merge distinct values.  A violation means the
    interval analysis mis-clustered something; failing loudly here beats
    silently corrupting a lowered kernel.
    """
    for index, live in enumerate(info.live_out):
        seen: dict[int, int] = {}
        for space, reg in live:
            if space != _SPACE_GENERAL:
                continue
            target = mapping.get(reg, reg)
            if target in seen and seen[target] != reg:
                raise SassError(
                    f"register repack of {name!r} merged live registers "
                    f"R{seen[target]} and R{reg} into R{target} at line {index}"
                )
            seen[target] = reg
