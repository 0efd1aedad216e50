"""Opcode metadata registry.

SASS opcodes are only vaguely documented by NVIDIA; the classification below
follows the CUDA binary utilities instruction listing and prior reverse-
engineering work (MaxAs, TuringAs, the Volta/Turing dissection papers) and is
what CuAsmRL needs to know about each opcode:

* is it a *memory* instruction (candidate action in the assembly game)?
* is it *fixed latency* (resolved by stall counts) or *variable latency*
  (resolved by scoreboard barriers)?
* is it a *barrier / synchronization / control-flow* instruction that
  instructions must never be reordered across?
* how many of its leading operands are destinations (for def-use analysis)?
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LatencyClass(Enum):
    """Whether an instruction completes in a statically known number of cycles."""

    FIXED = "fixed"
    VARIABLE = "variable"


class OpcodeCategory(Enum):
    """Coarse functional unit / behaviour classification."""

    INTEGER = "integer"
    FLOAT = "float"
    HALF = "half"
    TENSOR = "tensor"
    MOVE = "move"
    PREDICATE = "predicate"
    SHIFT_LOGIC = "shift_logic"
    CONVERSION = "conversion"
    SPECIAL_FUNC = "special_func"
    LOAD_GLOBAL = "load_global"
    STORE_GLOBAL = "store_global"
    LOAD_SHARED = "load_shared"
    STORE_SHARED = "store_shared"
    ASYNC_COPY = "async_copy"
    LOAD_CONSTANT = "load_constant"
    ATOMIC = "atomic"
    BARRIER = "barrier"
    BRANCH = "branch"
    CONTROL = "control"
    MISC = "misc"
    NOP = "nop"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata about a base opcode (modifiers stripped)."""

    name: str
    category: OpcodeCategory
    latency: LatencyClass
    #: Number of leading operands that are written by the instruction.
    dest_count: int = 1
    #: True when the instruction reads from memory.
    reads_memory: bool = False
    #: True when the instruction writes to memory.
    writes_memory: bool = False
    #: True for barriers / synchronization / control flow: never reorder across.
    is_sync: bool = False
    #: Short human-readable description.
    description: str = ""

    @property
    def is_memory(self) -> bool:
        """Memory load/store instructions are the action candidates (§3.5)."""
        return self.reads_memory or self.writes_memory

    @property
    def is_fixed_latency(self) -> bool:
        return self.latency is LatencyClass.FIXED


_REGISTRY: dict[str, OpcodeInfo] = {}


def _register(info: OpcodeInfo) -> None:
    _REGISTRY[info.name] = info


def _fixed(name: str, category: OpcodeCategory, dest_count: int = 1, description: str = "") -> None:
    _register(OpcodeInfo(name, category, LatencyClass.FIXED, dest_count, description=description))


def _variable(
    name: str,
    category: OpcodeCategory,
    *,
    dest_count: int = 1,
    reads_memory: bool = False,
    writes_memory: bool = False,
    is_sync: bool = False,
    description: str = "",
) -> None:
    _register(
        OpcodeInfo(
            name,
            category,
            LatencyClass.VARIABLE,
            dest_count,
            reads_memory=reads_memory,
            writes_memory=writes_memory,
            is_sync=is_sync,
            description=description,
        )
    )


# ---------------------------------------------------------------------------
# Fixed-latency ALU instructions (Table 1 of the paper covers the common ones)
# ---------------------------------------------------------------------------
_fixed("IADD3", OpcodeCategory.INTEGER, description="3-input integer add")
_fixed("IMAD", OpcodeCategory.INTEGER, description="integer multiply-add (also used as move/add)")
_fixed("IABS", OpcodeCategory.INTEGER, description="integer absolute value")
_fixed("IMNMX", OpcodeCategory.INTEGER, description="integer min/max")
_fixed("LEA", OpcodeCategory.INTEGER, description="load effective address")
_fixed("ISETP", OpcodeCategory.PREDICATE, dest_count=2, description="integer compare, set predicate")
_fixed("PSETP", OpcodeCategory.PREDICATE, dest_count=2, description="predicate logic")
_fixed("PLOP3", OpcodeCategory.PREDICATE, dest_count=2, description="predicate LOP3")
_fixed("FSETP", OpcodeCategory.PREDICATE, dest_count=2, description="float compare, set predicate")
_fixed("SEL", OpcodeCategory.MOVE, description="select by predicate")
_fixed("FSEL", OpcodeCategory.MOVE, description="float select by predicate")
_fixed("MOV", OpcodeCategory.MOVE, description="register move")
_fixed("SHF", OpcodeCategory.SHIFT_LOGIC, description="funnel shift")
_fixed("SHL", OpcodeCategory.SHIFT_LOGIC, description="shift left")
_fixed("SHR", OpcodeCategory.SHIFT_LOGIC, description="shift right")
_fixed("LOP3", OpcodeCategory.SHIFT_LOGIC, description="3-input logic op")
_fixed("FADD", OpcodeCategory.FLOAT, description="float add")
_fixed("FMUL", OpcodeCategory.FLOAT, description="float multiply")
_fixed("FFMA", OpcodeCategory.FLOAT, description="float fused multiply-add")
_fixed("FMNMX", OpcodeCategory.FLOAT, description="float min/max")
_fixed("HADD2", OpcodeCategory.HALF, description="packed half add")
_fixed("HMUL2", OpcodeCategory.HALF, description="packed half multiply")
_fixed("HFMA2", OpcodeCategory.HALF, description="packed half fused multiply-add")
_fixed("HSETP2", OpcodeCategory.PREDICATE, dest_count=2, description="packed half compare")
_fixed("HMNMX2", OpcodeCategory.HALF, description="packed half min/max")
_fixed("PRMT", OpcodeCategory.SHIFT_LOGIC, description="byte permute")
_fixed("VOTEU", OpcodeCategory.MISC, description="warp vote to uniform register")
_fixed("NOP", OpcodeCategory.NOP, dest_count=0, description="no operation")
_fixed("UIADD3", OpcodeCategory.INTEGER, description="uniform integer add")
_fixed("UIMAD", OpcodeCategory.INTEGER, description="uniform integer multiply-add")
_fixed("UMOV", OpcodeCategory.MOVE, description="uniform register move")
_fixed("ULDC", OpcodeCategory.LOAD_CONSTANT, description="uniform load from constant bank")
_fixed("USHF", OpcodeCategory.SHIFT_LOGIC, description="uniform funnel shift")
_fixed("ULOP3", OpcodeCategory.SHIFT_LOGIC, description="uniform 3-input logic op")
_fixed("ULEA", OpcodeCategory.INTEGER, description="uniform load effective address")
_fixed("USEL", OpcodeCategory.MOVE, description="uniform select")
_fixed("R2P", OpcodeCategory.PREDICATE, dest_count=0, description="register to predicates")
_fixed("P2R", OpcodeCategory.MOVE, description="predicates to register")
_fixed("CS2R", OpcodeCategory.MOVE, description="special register to register (fixed latency)")

# Tensor-core matrix-multiply-accumulate: throughput-limited but the result
# latency is resolved via fixed stall counts on Ampere for back-to-back HMMA.
_fixed("HMMA", OpcodeCategory.TENSOR, description="tensor-core half MMA")
_fixed("IMMA", OpcodeCategory.TENSOR, description="tensor-core integer MMA")

# Warp-level reductions / broadcasts.  REDUX is a real Ampere instruction
# (warp reduction to a uniform value); FBCAST stands in for the register
# shuffle sequences real kernels use to broadcast a per-row value across a
# tile fragment (documented as a substitution in DESIGN.md).
_fixed("REDUX", OpcodeCategory.TENSOR, description="row/warp reduction of a fragment")
_fixed("FBCAST", OpcodeCategory.TENSOR, description="row-broadcast arithmetic on a fragment")

# ---------------------------------------------------------------------------
# Variable-latency instructions (resolved by scoreboard barriers)
# ---------------------------------------------------------------------------
_variable("LDG", OpcodeCategory.LOAD_GLOBAL, reads_memory=True, description="load from global memory")
_variable("STG", OpcodeCategory.STORE_GLOBAL, dest_count=0, writes_memory=True, description="store to global memory")
_variable("LDS", OpcodeCategory.LOAD_SHARED, reads_memory=True, description="load from shared memory")
_variable("STS", OpcodeCategory.STORE_SHARED, dest_count=0, writes_memory=True, description="store to shared memory")
_variable("LDSM", OpcodeCategory.LOAD_SHARED, reads_memory=True, description="load matrix from shared memory")
_variable(
    "LDGSTS",
    OpcodeCategory.ASYNC_COPY,
    dest_count=0,
    reads_memory=True,
    writes_memory=True,
    description="asynchronous global->shared copy (cp.async)",
)
_variable("LDC", OpcodeCategory.LOAD_CONSTANT, reads_memory=True, description="load from constant memory")
_variable("LDL", OpcodeCategory.LOAD_GLOBAL, reads_memory=True, description="load from local memory")
_variable("STL", OpcodeCategory.STORE_GLOBAL, dest_count=0, writes_memory=True, description="store to local memory")
_variable("ATOMG", OpcodeCategory.ATOMIC, reads_memory=True, writes_memory=True, description="global atomic")
_variable("ATOMS", OpcodeCategory.ATOMIC, reads_memory=True, writes_memory=True, description="shared atomic")
_variable("RED", OpcodeCategory.ATOMIC, dest_count=0, writes_memory=True, description="reduction to global memory")
_variable("I2F", OpcodeCategory.CONVERSION, description="int to float conversion")
_variable("F2I", OpcodeCategory.CONVERSION, description="float to int conversion")
_variable("F2F", OpcodeCategory.CONVERSION, description="float to float conversion")
_variable("I2I", OpcodeCategory.CONVERSION, description="int to int conversion")
_variable("MUFU", OpcodeCategory.SPECIAL_FUNC, description="multi-function unit (rcp, ex2, lg2...)")
_variable("S2R", OpcodeCategory.MOVE, description="special register to register")
_variable("DMMA", OpcodeCategory.TENSOR, description="double-precision tensor MMA")

# ---------------------------------------------------------------------------
# Barriers, synchronization and control flow (never reorder across; §3.5)
# ---------------------------------------------------------------------------
_variable("BAR", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="thread-block barrier")
_variable("DEPBAR", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="scoreboard dependency barrier")
_variable("LDGDEPBAR", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="cp.async group commit")
_variable("MEMBAR", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="memory fence")
_variable("ERRBAR", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="error barrier")
_variable("BRA", OpcodeCategory.BRANCH, dest_count=0, is_sync=True, description="branch")
_variable("BRX", OpcodeCategory.BRANCH, dest_count=0, is_sync=True, description="indirect branch")
_variable("JMP", OpcodeCategory.BRANCH, dest_count=0, is_sync=True, description="jump")
_variable("EXIT", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="thread exit")
_variable("RET", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="return")
_variable("BSSY", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="convergence barrier set")
_variable("BSYNC", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="convergence barrier sync")
_variable("WARPSYNC", OpcodeCategory.BARRIER, dest_count=0, is_sync=True, description="warp-level sync")
_variable("YIELD", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="yield to other warps")
_variable("CALL", OpcodeCategory.CONTROL, dest_count=0, is_sync=True, description="call")


#: Opcodes whose instructions the RL agent is allowed to pick as actions
#: (§3.5: memory load/store instructions such as LDG, LDGSTS and STG).
ACTIONABLE_MEMORY_OPCODES = frozenset(
    {"LDG", "STG", "LDS", "STS", "LDSM", "LDGSTS", "LDL", "STL", "LDC"}
)


def base_opcode(opcode_text: str) -> str:
    """Strip modifiers: ``"LDGSTS.E.BYPASS.LTC128B.128"`` -> ``"LDGSTS"``."""
    return opcode_text.split(".", 1)[0]


def lookup(opcode_text: str) -> OpcodeInfo:
    """Return metadata for an opcode (modifiers allowed).

    Unknown opcodes are treated conservatively: variable latency, non-memory,
    synchronizing — which makes dependence analysis refuse to move anything
    across them.
    """
    base = base_opcode(opcode_text)
    info = _REGISTRY.get(base)
    if info is not None:
        return info
    return OpcodeInfo(
        base,
        OpcodeCategory.MISC,
        LatencyClass.VARIABLE,
        dest_count=0,
        is_sync=True,
        description="unknown opcode (conservatively treated as a scheduling fence)",
    )


def is_known(opcode_text: str) -> bool:
    """Whether the base opcode is in the registry."""
    return base_opcode(opcode_text) in _REGISTRY


def all_opcodes() -> dict[str, OpcodeInfo]:
    """A copy of the full registry (used by documentation and tests)."""
    return dict(_REGISTRY)
