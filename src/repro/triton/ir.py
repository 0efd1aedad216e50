"""Tile-level intermediate representation of the mini-Triton compiler.

Kernels are written against :class:`TileProgram`, a small SSA-style builder
whose operations work on *tiles* (fragments), pointers and scalars — the same
abstraction level as Triton's language.  The IR is deliberately low level
enough that lowering to SASS is direct (one IR op becomes one or a few SASS
instructions) while still letting :mod:`repro.triton.ptx` render a readable
PTX-like listing for the §5.6 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ValueKind(Enum):
    """Static type of an IR value."""

    INT = "int"  # 32-bit scalar integer (indices, strides)
    PTR = "ptr"  # 64-bit global pointer
    FLOAT = "float"  # scalar float
    FRAGMENT = "fragment"  # a tile fragment held in registers
    PRED = "pred"  # boolean predicate


@dataclass(frozen=True)
class Value:
    """An SSA value produced by an IR operation."""

    id: int
    kind: ValueKind
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"%{self.id}:{self.kind.value}" + (f"({self.name})" if self.name else "")


@dataclass
class Op:
    """One IR operation: an opcode, operands (Values or literals) and a result."""

    opcode: str
    operands: tuple = ()
    result: Value | None = None
    attrs: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        res = f"{self.result} = " if self.result is not None else ""
        attrs = f" {self.attrs}" if self.attrs else ""
        return f"{res}{self.opcode} {list(self.operands)}{attrs}"


class TileProgram:
    """Builder for the tile IR of one kernel.

    The methods append operations and return :class:`Value` handles.  Loops
    are expressed with :meth:`loop_begin` / :meth:`loop_end`, and accumulators
    (values updated in place across loop iterations) with
    :meth:`alloc_accumulator` and the ``*_inplace`` operations.
    """

    def __init__(self, name: str):
        self.name = name
        self.ops: list[Op] = []
        self._next_id = 0
        #: Kernel parameters in ABI order: (name, kind) pairs.
        self.params: list[tuple[str, ValueKind]] = []
        #: Shared memory bytes requested by the program.
        self.shared_bytes = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _value(self, kind: ValueKind, name: str = "") -> Value:
        value = Value(self._next_id, kind, name)
        self._next_id += 1
        return value

    def _emit(self, opcode: str, operands=(), kind: ValueKind | None = None, **attrs) -> Value | None:
        result = self._value(kind) if kind is not None else None
        self.ops.append(Op(opcode, tuple(operands), result, dict(attrs)))
        return result

    def alloc_shared(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of shared memory; returns the byte offset."""
        offset = self.shared_bytes
        self.shared_bytes += int(nbytes)
        return offset

    # ------------------------------------------------------------------
    # Parameters, ids and scalars
    # ------------------------------------------------------------------
    def param_ptr(self, name: str) -> Value:
        """Declare a pointer kernel parameter (in declaration order)."""
        index = len(self.params)
        self.params.append((name, ValueKind.PTR))
        return self._emit("param", (index,), ValueKind.PTR, name=name)

    def program_id(self, axis: int = 0) -> Value:
        """Thread-block index along ``axis`` (Triton's ``tl.program_id``)."""
        return self._emit("program_id", (axis,), ValueKind.INT)

    def thread_id(self) -> Value:
        """Thread index within the block (the low 5 bits are the lane)."""
        return self._emit("thread_id", (), ValueKind.INT)

    def warp_id(self) -> Value:
        """Warp index within the block (``thread_id >> 5``)."""
        tid = self.thread_id()
        return self.shr_int(tid, 5)

    def const_int(self, value: int) -> Value:
        return self._emit("const_int", (int(value),), ValueKind.INT)

    def const_float(self, value: float) -> Value:
        return self._emit("const_float", (float(value),), ValueKind.FLOAT)

    # ------------------------------------------------------------------
    # Integer / pointer arithmetic
    # ------------------------------------------------------------------
    def mul_int(self, a: Value, b) -> Value:
        return self._emit("mul_int", (a, b), ValueKind.INT)

    def add_int(self, a: Value, b) -> Value:
        return self._emit("add_int", (a, b), ValueKind.INT)

    def shl_int(self, a: Value, amount: int) -> Value:
        return self._emit("shl_int", (a, int(amount)), ValueKind.INT)

    def shr_int(self, a: Value, amount: int) -> Value:
        return self._emit("shr_int", (a, int(amount)), ValueKind.INT)

    def compare_gt(self, a: Value, b: Value | int) -> Value:
        """Predicate ``a > b`` (used to guard prefetches on the last iteration)."""
        return self._emit("compare_gt", (a, b), ValueKind.PRED)

    def ptr_offset(self, ptr: Value, offset: Value | int, scale_bytes: int = 1) -> Value:
        """``ptr + offset * scale_bytes`` as a new pointer."""
        return self._emit("ptr_offset", (ptr, offset, int(scale_bytes)), ValueKind.PTR)

    def advance_ptr(self, ptr: Value, delta_bytes: int) -> None:
        """Advance a pointer in place (used inside loops)."""
        self._emit("advance_ptr", (ptr, int(delta_bytes)))

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def async_copy(
        self,
        shared_offset: int | Value,
        ptr: Value,
        nbytes: int,
        *,
        row_bytes: int = 0,
        row_stride: int = 0,
        predicate: Value | None = None,
    ) -> None:
        """cp.async: copy ``nbytes`` from global ``ptr`` into shared memory.

        When ``row_bytes``/``row_stride`` are given, the copy gathers
        ``nbytes / row_bytes`` rows of ``row_bytes`` bytes separated by
        ``row_stride`` bytes in global memory (the per-lane strided addressing
        of real cp.async), packing them contiguously in shared memory.  An
        optional ``predicate`` guards the copy (masked loads on the last tile).
        """
        self._emit(
            "async_copy",
            (shared_offset, ptr, int(nbytes)),
            row_bytes=int(row_bytes),
            row_stride=int(row_stride),
            predicate=predicate,
        )

    def async_commit(self) -> None:
        """Commit the outstanding cp.async group (LDGDEPBAR)."""
        self._emit("async_commit", ())

    def barrier(self) -> None:
        """Block-wide synchronization (BAR.SYNC)."""
        self._emit("barrier", ())

    def load_shared(
        self,
        shared_offset: int | Value,
        nbytes: int,
        *,
        row_bytes: int = 0,
        row_stride: int = 0,
    ) -> Value:
        """Load a fragment from shared memory (optionally row-strided)."""
        return self._emit(
            "load_shared",
            (shared_offset, int(nbytes)),
            ValueKind.FRAGMENT,
            row_bytes=int(row_bytes),
            row_stride=int(row_stride),
        )

    def load_global(
        self,
        ptr: Value,
        nbytes: int,
        *,
        row_bytes: int = 0,
        row_stride: int = 0,
    ) -> Value:
        """Load a fragment straight from global memory (optionally row-strided)."""
        return self._emit(
            "load_global",
            (ptr, int(nbytes)),
            ValueKind.FRAGMENT,
            row_bytes=int(row_bytes),
            row_stride=int(row_stride),
        )

    def store_global(
        self,
        ptr: Value,
        fragment: Value,
        nbytes: int,
        *,
        row_bytes: int = 0,
        row_stride: int = 0,
    ) -> None:
        """Store a fragment to global memory (optionally row-strided)."""
        self._emit(
            "store_global",
            (ptr, fragment, int(nbytes)),
            row_bytes=int(row_bytes),
            row_stride=int(row_stride),
        )

    # ------------------------------------------------------------------
    # Tile compute
    # ------------------------------------------------------------------
    def alloc_accumulator(self, name: str = "acc") -> Value:
        """A zero-initialised accumulator fragment updated in place."""
        return self._emit("alloc_accumulator", (), ValueKind.FRAGMENT, name=name)

    def mma_inplace(
        self, acc: Value, a: Value, b: Value, shape=(16, 8, 16), *, transpose_b: bool = False
    ) -> None:
        """``acc += a @ b`` on the tensor cores (HMMA).

        ``transpose_b`` treats the B fragment as stored (n, k) row-major and
        transposes it before the multiply (the ``.TB`` layout modifier).
        """
        self._emit("mma", (acc, a, b), shape=tuple(shape), transpose_b=transpose_b)

    def assign(self, target: Value, source: Value) -> None:
        """Copy ``source`` into ``target``'s register (loop-carried state)."""
        self._emit("assign", (target, source))

    def ewise(self, op: str, a: Value, b: Value | float | None = None) -> Value:
        """Elementwise op: add, sub, mul, max, min, exp2, rcp, rsqrt, abs, scale."""
        operands = (a,) if b is None else (a, b)
        return self._emit("ewise", operands, ValueKind.FRAGMENT, op=op)

    def ewise_inplace(self, op: str, target: Value, other: Value | float | None = None) -> None:
        """Elementwise update of ``target`` in place (accumulators, running stats)."""
        operands = (target,) if other is None else (target, other)
        self._emit("ewise_inplace", operands, op=op)

    def fma(self, a: Value, b: Value | float, c: Value | float) -> Value:
        """Fused ``a * b + c`` on fragments/scalars."""
        return self._emit("fma", (a, b, c), ValueKind.FRAGMENT)

    def redux(self, fragment: Value, op: str = "max", row_length: int = 0) -> Value:
        """Row-wise (or full) reduction of a fragment."""
        return self._emit("redux", (fragment, int(row_length)), ValueKind.FRAGMENT, op=op)

    def bcast(self, fragment: Value, rowvec: Value, op: str = "sub", row_length: int = 0) -> Value:
        """Row-broadcast combine of a fragment with a per-row vector."""
        return self._emit(
            "bcast", (fragment, rowvec, int(row_length)), ValueKind.FRAGMENT, op=op
        )

    def leaky_relu(self, fragment: Value, slope: float = 0.01) -> Value:
        """LeakyReLU epilogue (used by the mmLeakyReLU workload)."""
        return self._emit("leaky_relu", (fragment, float(slope)), ValueKind.FRAGMENT)

    def silu(self, fragment: Value) -> Value:
        """SiLU activation (used by the fused feed-forward workload)."""
        return self._emit("silu", (fragment,), ValueKind.FRAGMENT)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def loop_begin(self, trip_count: Value | int, name: str = "loop") -> int:
        """Open a counted loop; returns a loop token for :meth:`loop_end`."""
        token = len(self.ops)
        self._emit("loop_begin", (trip_count,), name=name)
        return token

    def loop_end(self, token: int) -> None:
        """Close the innermost open loop identified by ``token``."""
        self._emit("loop_end", (token,))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable dump of the IR (for docs and tests)."""
        lines = [f"tile_program @{self.name} (params: {[p[0] for p in self.params]})"]
        indent = 1
        for op in self.ops:
            if op.opcode == "loop_end":
                indent = max(indent - 1, 1)
            lines.append("  " * indent + repr(op))
            if op.opcode == "loop_begin":
                indent += 1
        return "\n".join(lines)
