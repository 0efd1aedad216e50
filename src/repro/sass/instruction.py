"""The SASS instruction model.

An :class:`Instruction` bundles a control code, an optional guard predicate,
an opcode (with modifiers) and a list of operands — exactly the fields the
paper's parser extracts (§2.3, §3.2).  The class also exposes the register
def/use sets needed by dependence analysis and action masking.

Registers are seen two ways:

* **Widened sets.** :meth:`Instruction.read_registers` and
  :meth:`Instruction.written_registers` widen ``.64``, ``.128`` and
  ``.WIDE`` operands to the aligned register group real hardware touches.
  The masker (:mod:`repro.core.masking`), the verifier's dependence graph
  (:mod:`repro.analysis.deps`), stall inference, liveness, ptxas
  (:mod:`repro.triton.ptxas`) and the timing engines' register-bank model
  (:mod:`repro.sim.program`) all use these sets.
* **The named register.** The simulator's handlers
  (:mod:`repro.sim.executor`) read and write only the register an operand
  names: the lowering gives each tile fragment one register.

So the analyses over-approximate what execution touches, which keeps them
sound as long as every register a handler touches lies inside the widened
sets.  ``tests/test_register_model.py`` pins that on every bundled kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, TypeVar

from repro.sass import opcodes as opcodes_mod
from repro.sass.control import DEFAULT_CONTROL, ControlCode
from repro.sass.opcodes import OpcodeInfo
from repro.sass.operands import (
    MemoryOperand,
    Operand,
    PredicateOperand,
    RegisterOperand,
    UniformRegisterOperand,
)

_T = TypeVar("_T")


@dataclass(frozen=True)
class Instruction:
    """A single decoded SASS instruction.

    Attributes
    ----------
    opcode:
        Full opcode text including modifiers, e.g. ``"LDGSTS.E.BYPASS.128"``.
    operands:
        Operand objects in source order.
    control:
        The control code (barriers, yield, stall count).
    predicate:
        Optional guard predicate (``@P0`` / ``@!PT``).
    comment:
        Free-form trailing comment preserved for round-tripping.

    Instructions are immutable, so derived metadata (def/use sets, operand
    partitions, opcode info, the rendered line) is computed once and cached on
    the instance under ``_cached_*`` attributes.  The caches are an
    identity-level optimization — every simulator issue of an instruction used
    to rebuild these frozensets — and are stripped on pickling: the
    simulator's compiled handlers among them do not pickle.
    """

    opcode: str
    operands: tuple[Operand, ...] = ()
    control: ControlCode = DEFAULT_CONTROL
    predicate: PredicateOperand | None = None
    comment: str = ""

    def _cache(self, name: str, value: _T) -> _T:
        """Memoize a derived value on this (frozen, immutable) instruction."""
        object.__setattr__(self, name, value)
        return value

    def __getstate__(self):
        """Pickle only the declared fields, never the ``_cached_*`` memos."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_cached_")}

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Opcode metadata
    # ------------------------------------------------------------------
    @property
    def base_opcode(self) -> str:
        """Opcode with modifiers stripped."""
        cached = self.__dict__.get("_cached_base_opcode")
        if cached is None:
            cached = self._cache("_cached_base_opcode", opcodes_mod.base_opcode(self.opcode))
        return cached

    @property
    def modifiers(self) -> tuple[str, ...]:
        """Opcode modifiers, e.g. ``("E", "BYPASS", "128")``."""
        cached = self.__dict__.get("_cached_modifiers")
        if cached is None:
            cached = self._cache("_cached_modifiers", tuple(self.opcode.split(".")[1:]))
        return cached

    @property
    def info(self) -> OpcodeInfo:
        """Static metadata for this opcode."""
        cached = self.__dict__.get("_cached_info")
        if cached is None:
            cached = self._cache("_cached_info", opcodes_mod.lookup(self.opcode))
        return cached

    @property
    def is_memory(self) -> bool:
        """Whether this is a memory load/store instruction."""
        return self.info.is_memory

    @property
    def is_actionable_memory(self) -> bool:
        """Whether the RL agent may pick this instruction as an action (§3.5)."""
        return self.base_opcode in opcodes_mod.ACTIONABLE_MEMORY_OPCODES

    @property
    def is_fixed_latency(self) -> bool:
        return self.info.is_fixed_latency

    @property
    def is_sync(self) -> bool:
        """Barrier / synchronization / control-flow instruction (reorder fence)."""
        return self.info.is_sync

    @property
    def has_reuse_flag(self) -> bool:
        """Whether any source register operand carries the ``.reuse`` flag."""
        return any(isinstance(op, RegisterOperand) and op.reuse for op in self.operands)

    @property
    def guarded_off(self) -> bool:
        """True when the guard predicate is ``@!PT`` (never executes; §5.7.2)."""
        return self.predicate is not None and self.predicate.is_pt and self.predicate.negated

    # ------------------------------------------------------------------
    # Def / use sets
    # ------------------------------------------------------------------
    def dest_operands(self) -> tuple[Operand, ...]:
        """Operands written by the instruction (leading ``dest_count`` registers)."""
        cached = self.__dict__.get("_cached_dest_operands")
        if cached is not None:
            return cached
        remaining = self.info.dest_count
        dests: list[Operand] = []
        for op in self.operands:
            if remaining == 0:
                break
            if isinstance(op, (RegisterOperand, PredicateOperand, UniformRegisterOperand)):
                dests.append(op)
                remaining -= 1
            else:
                # Memory operands are never register destinations; stop scanning
                # so stores (dest_count=0) and LDGSTS keep an empty dest set.
                break
        return self._cache("_cached_dest_operands", tuple(dests))

    def source_operands(self) -> tuple[Operand, ...]:
        """Operands read by the instruction."""
        cached = self.__dict__.get("_cached_source_operands")
        if cached is not None:
            return cached
        dests = set(id(op) for op in self.dest_operands())
        sources = tuple(op for op in self.operands if id(op) not in dests)
        return self._cache("_cached_source_operands", sources)

    def _dest_width_registers(self) -> int:
        """How many consecutive 32-bit registers the destination covers.

        Wide integer multiply-adds (``IMAD.WIDE``) and vector memory accesses
        (``.64`` / ``.128`` modifiers) write an aligned group of registers even
        though the listing names only the first one.
        """
        cached = self.__dict__.get("_cached_dest_width")
        if cached is not None:
            return cached
        mods = self.modifiers
        if "WIDE" in mods:
            width = 2
        elif "128" in mods:
            width = 4
        elif "64" in mods:
            width = 2
        else:
            width = 1
        return self._cache("_cached_dest_width", width)

    def written_registers(self) -> frozenset[int]:
        """General-purpose registers written by this instruction.

        The destination of a wide / vector instruction is expanded to the full
        register group so def-use analysis sees every written register.
        """
        cached = self.__dict__.get("_cached_written_registers")
        if cached is not None:
            return cached
        regs: set[int] = set()
        width = self._dest_width_registers()
        for op in self.dest_operands():
            if isinstance(op, RegisterOperand):
                regs |= op.registers()
                if width > 1 and not op.is_rz:
                    regs |= {op.index + i for i in range(width)}
        return self._cache("_cached_written_registers", frozenset(regs))

    def read_registers(self) -> frozenset[int]:
        """General-purpose registers read by this instruction.

        Memory-operand base registers are always reads, even when the operand
        appears in destination position (e.g. the address of a store).
        """
        cached = self.__dict__.get("_cached_read_registers")
        if cached is not None:
            return cached
        regs: set[int] = set()
        width = self._dest_width_registers() if self.info.writes_memory else 1
        for op in self.source_operands():
            regs |= op.registers()
            # The data register of a vector store covers the whole group.
            if (
                width > 1
                and isinstance(op, RegisterOperand)
                and not op.is_rz
                and not op.is64
            ):
                regs |= {op.index + i for i in range(width)}
        for op in self.operands:
            if isinstance(op, MemoryOperand):
                regs |= op.registers()
        return self._cache("_cached_read_registers", frozenset(regs))

    def written_predicates(self) -> frozenset[int]:
        preds: set[int] = set()
        for op in self.dest_operands():
            if isinstance(op, PredicateOperand):
                preds |= op.predicates()
        return frozenset(preds)

    def read_predicates(self) -> frozenset[int]:
        preds: set[int] = set()
        if self.predicate is not None:
            preds |= self.predicate.predicates()
        for op in self.source_operands():
            if isinstance(op, PredicateOperand):
                preds |= op.predicates()
        return frozenset(preds)

    def written_uniform_registers(self) -> frozenset[int]:
        regs: set[int] = set()
        for op in self.dest_operands():
            if isinstance(op, UniformRegisterOperand):
                regs |= op.uniform_registers()
        return frozenset(regs)

    def read_uniform_registers(self) -> frozenset[int]:
        regs: set[int] = set()
        for op in self.source_operands():
            regs |= op.uniform_registers()
        for op in self.operands:
            if isinstance(op, MemoryOperand):
                regs |= op.uniform_registers()
        return frozenset(regs)

    def memory_operands(self) -> tuple[MemoryOperand, ...]:
        """All memory-address operands of this instruction."""
        return tuple(op for op in self.operands if isinstance(op, MemoryOperand))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_control(self, control: ControlCode) -> "Instruction":
        return replace(self, control=control)

    def with_operands(self, operands: Iterable[Operand]) -> "Instruction":
        return replace(self, operands=tuple(operands))

    def without_reuse_flags(self) -> "Instruction":
        """Strip every ``.reuse`` flag (used by the §5.7.1 reuse-flag study)."""
        new_ops = tuple(
            op.without_reuse() if isinstance(op, RegisterOperand) and op.reuse else op
            for op in self.operands
        )
        return replace(self, operands=new_ops)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, *, with_control: bool = True) -> str:
        """Render the instruction back to SASS text.

        The default form, with the control code, is cached: it is the line
        :meth:`SassKernel.content_digest <repro.sass.kernel.SassKernel.content_digest>`
        hashes for every candidate schedule, and swapped schedules share
        their instruction objects.
        """
        if not with_control:
            return self._render(with_control=False)
        cached: str | None = self.__dict__.get("_cached_render")
        if cached is None:
            cached = self._cache("_cached_render", self._render(with_control=True))
        return cached

    def _render(self, *, with_control: bool) -> str:
        parts: list[str] = []
        if with_control:
            parts.append(self.control.render())
        if self.predicate is not None:
            parts.append(f"@{self.predicate.render()}")
        body = self.opcode
        if self.operands:
            body += " " + ", ".join(op.render() for op in self.operands)
        parts.append(body + " ;")
        text = " ".join(parts)
        if self.comment:
            text += f"  // {self.comment}"
        return text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


@dataclass(frozen=True)
class Label:
    """A branch-target label line, e.g. ``.L_x_12:``.

    Labels delimit basic blocks; the assembly game never moves instructions
    across them (§3.5).
    """

    name: str

    def render(self) -> str:
        return f"{self.name}:"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


#: A line of a SASS listing: either an instruction or a label.
SassLine = "Instruction | Label"
