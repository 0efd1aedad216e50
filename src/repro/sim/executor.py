"""Warp-level SASS executor: functional semantics with timing-aware visibility.

The executor implements the semantics of the SASS subset emitted by the
mini-Triton backend at *warp-tile granularity*: a general-purpose register
holds either an integer scalar (addresses, loop counters) or a numpy array —
the fragment of a tile the warp owns.  This keeps register-level data
dependencies exactly as in real SASS (which is what the scheduling problem is
about) while making functional verification tractable in pure Python.

Crucially, register visibility is *timing aware*: a write becomes visible
``latency`` cycles after issue, and a read that happens earlier observes the
previous (stale) value.  This is how real Ampere hardware behaves for
fixed-latency instructions whose stall counts are too small, it is what makes
the dependency-based microbenchmarks of §4.3 work, and it is how probabilistic
testing catches schedules that violate dependencies.

Each instruction is compiled once into a handler closure whose operand
accessors and destination writers index a warp's :class:`RegisterFile`, flat
per-space lists of value, ready cycle and stale value.
:meth:`WarpExecutor.step` issues one decoded record
(:class:`repro.sim.program.DecodedInstr`) whose pc and wait mask its driver
(:mod:`repro.sim.sm`) has already resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.arch.latency_table import execution_latency
from repro.errors import ExecutionError
from repro.sass.control import NUM_BARRIERS
from repro.sass.instruction import Instruction
from repro.sass.operands import (
    ConstantMemoryOperand,
    ImmediateOperand,
    LabelOperand,
    MemoryOperand,
    Operand,
    PredicateOperand,
    RegisterOperand,
    SpecialRegisterOperand,
    UniformRegisterOperand,
)
from repro.sim.launch import LaunchContext
from repro.sim.memory import MemoryRequest, SharedMemory

#: Bytes moved per warp for a global/shared access, keyed by width modifier.
#: ``256`` (1 KiB per warp) models a pair of back-to-back 128-bit accesses
#: that real kernels issue as two instructions; see DESIGN.md.
_WIDTH_BYTES = {"256": 1024, "128": 512, "64": 256, "32": 128, "16": 64}
_DEFAULT_ACCESS_BYTES = 512


def access_bytes(instr: Instruction) -> int:
    """Bytes moved per warp by a memory instruction (from its width modifier)."""
    for mod in instr.modifiers:
        if mod in _WIDTH_BYTES:
            return _WIDTH_BYTES[mod]
    return _DEFAULT_ACCESS_BYTES


class RegisterFile:
    """Timing-aware storage for one warp's registers, predicates and uniform registers.

    Each space is three flat lists indexed by register number: the current
    value, the cycle from which reads see it, and the stale value reads see
    before that cycle.  The lists are sized from the highest index the
    program names (:attr:`repro.sim.program.DecodedProgram.register_counts`),
    and the compiled operand accessors and destination writers index them
    directly.  An unwritten register reads 0 and an unwritten predicate False.
    """

    __slots__ = (
        "reg_value", "reg_ready_at", "reg_stale",
        "pred_value", "pred_ready_at", "pred_stale",
        "ureg_value", "ureg_ready_at", "ureg_stale",
    )

    def __init__(self, num_regs: int, num_preds: int, num_uregs: int) -> None:
        self.reg_value: list = [0] * num_regs
        self.reg_ready_at = [0] * num_regs
        self.reg_stale: list = [0] * num_regs
        self.pred_value = [False] * num_preds
        self.pred_ready_at = [0] * num_preds
        self.pred_stale = [False] * num_preds
        self.ureg_value: list = [0] * num_uregs
        self.ureg_ready_at = [0] * num_uregs
        self.ureg_stale: list = [0] * num_uregs


@dataclass(slots=True)
class WarpState:
    """Mutable per-warp execution state."""

    warp_id: int
    ctaid: tuple[int, int, int]
    registers: RegisterFile
    #: Listing index of the next line to execute.
    pc: int = 0
    #: Earliest cycle at which the warp may issue its next instruction.
    next_issue: int = 0
    #: Scoreboard: cycle at which each barrier slot clears.
    scoreboard: list[int] = field(default_factory=lambda: [0] * NUM_BARRIERS)
    finished: bool = False
    waiting_at_barrier: bool = False
    #: dynamic instruction count (profiling)
    issued: int = 0

    def barrier_clear_cycle(self, wait_mask) -> int:
        """Cycle at which every scoreboard slot in ``wait_mask`` is clear."""
        return max([self.scoreboard[slot] for slot in wait_mask], default=0)

    def set_barrier(self, slot: int, clear_cycle: int) -> None:
        if clear_cycle > self.scoreboard[slot]:
            self.scoreboard[slot] = clear_cycle


@dataclass(slots=True)
class StepOutcome:
    """What happened when one instruction was issued."""

    instruction: Instruction
    issue_cycle: int
    completion_cycle: int
    is_memory: bool = False
    memory_request: MemoryRequest | None = None
    branched: bool = False
    exited: bool = False
    hit_block_barrier: bool = False
    predicated_off: bool = False


class WarpExecutor:
    """Executes instructions for warps of a single thread block.

    The executor is driver-agnostic: both the sequential functional runner and
    the SM timing simulator resolve the warp's next instruction and the cycle
    its wait mask allows, then call :meth:`step` with its decoded record.  The
    executor updates the warp state, performs the architectural effects and
    reports latency/completion information back.
    """

    def __init__(
        self,
        lines,
        launch: LaunchContext,
        shared: SharedMemory,
        *,
        label_positions: dict[str, int],
        memory_latency=None,
        program=None,
        timing_only: bool = False,
    ) -> None:
        self.lines = lines
        self.launch = launch
        self.shared = shared
        self.labels = label_positions
        #: Callable (MemoryRequest, issue_cycle) -> latency; defaults to a
        #: fixed latency per opcode class when no timing model is attached.
        self.memory_latency = memory_latency
        #: The :class:`repro.sim.program.DecodedProgram` whose records the
        #: drivers pass to :meth:`step`: execution dispatches through
        #: per-instruction compiled handlers instead of re-splitting opcodes
        #: per issue.  The simulators pass their kernel's cached program;
        #: direct construction from bare lines decodes one ad hoc.
        if program is None:
            # Deferred import: program.py imports this module at load time.
            from repro.sim.program import build_program_from_lines

            program = build_program_from_lines(lines)
        self.program = program
        #: Per-listing-index handlers: the full ones, or the program's timing
        #: view (data-only instructions elided) when only cycles are wanted.
        self.handlers = program.timing_handlers if timing_only else program.handlers

    def _special_register(self, name: str, warp: WarpState, cycle: int):
        ctaid_x, ctaid_y, ctaid_z = warp.ctaid
        mapping = {
            "SR_CTAID.X": ctaid_x,
            "SR_CTAID.Y": ctaid_y,
            "SR_CTAID.Z": ctaid_z,
            "SR_TID.X": warp.warp_id * 32,
            "SR_TID.Y": 0,
            "SR_TID.Z": 0,
            "SR_LANEID": 0,
            "SR_CLOCKLO": cycle,
            "SR_CLOCKHI": 0,
            "SR_WARPID": warp.warp_id,
        }
        if name in mapping:
            return mapping[name]
        raise ExecutionError(f"unmodelled special register {name}")

    # ------------------------------------------------------------------
    # The main step function
    # ------------------------------------------------------------------
    def step(self, warp: WarpState, rec, issue_cycle: int) -> StepOutcome:
        """Issue ``rec``, the decoded instruction at ``warp.pc``, at ``issue_cycle``.

        The driver has resolved ``warp.pc`` to an instruction line and folded
        the wait mask's barrier clear cycle into ``issue_cycle``.
        """
        warp.issued += 1
        outcome = StepOutcome(rec.instr, issue_cycle, issue_cycle)
        gap = rec.issue_gap

        # Guard predicate: a predicated-off instruction still occupies the
        # issue slot (and its stall count) but has no architectural effect.
        predicate_fn = rec.predicate_fn
        if predicate_fn is not None and not predicate_fn(self, warp, issue_cycle):
            outcome.predicated_off = True
            warp.pc += 1
            warp.next_issue = issue_cycle + gap
            return outcome

        handler = self.handlers[warp.pc]
        if handler is None:
            raise ExecutionError(f"unmodelled opcode {rec.instr.opcode!r}")
        handler(self, warp, issue_cycle, outcome)

        if not outcome.branched and not outcome.exited:
            warp.pc += 1
        warp.next_issue = issue_cycle + gap

        # Scoreboard barriers set by this instruction.
        if rec.write_barrier is not None:
            warp.set_barrier(rec.write_barrier, outcome.completion_cycle)
        if rec.read_barrier is not None:
            # Source operands are consumed a few cycles after issue (the
            # request leaves the register file for the LSU).
            warp.set_barrier(rec.read_barrier, issue_cycle + 10)
        return outcome

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------
    def _fragment_to_bytes(self, fragment, dtype: np.dtype, nbytes: int) -> np.ndarray:
        array = np.asarray(fragment, dtype=np.float32).reshape(-1)
        out = array.astype(dtype)
        needed = nbytes // dtype.itemsize
        if out.size < needed:
            out = np.concatenate([out, np.zeros(needed - out.size, dtype=dtype)])
        return out[:needed]




# ---------------------------------------------------------------------------
# Instruction compilation
# ---------------------------------------------------------------------------
# Every static instruction is compiled once into a closure
# ``handler(ex, warp, issue_cycle, outcome)`` capturing everything knowable
# before execution: operand accessors, destination writers, result latency,
# modifier decisions (shift direction, compare function, MMA shape, memory
# access geometry).  The dynamic residue — register reads, memory traffic,
# predicate values — is exactly the seed handlers' arithmetic, so compiled
# execution is bit-identical to the dict-dispatch engine preserved in
# :mod:`repro.sim._reference_executor`.  Closures are cached on the
# (immutable) instruction objects, so the mutated schedules of a search
# compile almost nothing new.


def _as_int(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.reshape(-1)[0])
    return int(value)


def _const(value):
    def fn(ex, warp, cycle):
        return value

    return fn


_CONST_ZERO = _const(0)


# ---------------------------------------------------------------------------
# Operand access compilation (mirrors the reference executor's ``_eval``
# branch by branch).  A read before a register's ready cycle sees its stale
# value: the timing-aware visibility of the module docstring.
# ---------------------------------------------------------------------------
def _reg_reader(index: int):
    def read(ex, warp, cycle):
        regs = warp.registers
        if cycle >= regs.reg_ready_at[index]:
            return regs.reg_value[index]
        return regs.reg_stale[index]

    return read


def _pred_reader(index: int):
    def read(ex, warp, cycle):
        regs = warp.registers
        if cycle >= regs.pred_ready_at[index]:
            return regs.pred_value[index]
        return regs.pred_stale[index]

    return read


def _ureg_reader(index: int):
    def read(ex, warp, cycle):
        regs = warp.registers
        if cycle >= regs.ureg_ready_at[index]:
            return regs.ureg_value[index]
        return regs.ureg_stale[index]

    return read


def _compile_register_eval(op: RegisterOperand):
    if op.is_rz:
        # abs(0) / -0 are still 0, so modifiers collapse away.
        return _CONST_ZERO
    read = _reg_reader(op.index)
    if op.absolute and op.negated:

        def fn(ex, warp, cycle):
            value = read(ex, warp, cycle)
            value = np.abs(value) if isinstance(value, np.ndarray) else abs(value)
            return -value

    elif op.absolute:

        def fn(ex, warp, cycle):
            value = read(ex, warp, cycle)
            return np.abs(value) if isinstance(value, np.ndarray) else abs(value)

    elif op.negated:

        def fn(ex, warp, cycle):
            return -read(ex, warp, cycle)

    else:
        return read
    return fn


def _compile_address(op: MemoryOperand):
    """Compiled address of a memory operand: its offset plus its register bases."""
    offset = op.offset
    base = None
    if op.base is not None and not op.base.is_rz:
        base = _reg_reader(op.base.index)
    uniform = None
    if op.uniform_base is not None and not op.uniform_base.is_urz:
        uniform = _ureg_reader(op.uniform_base.index)

    if base is not None and uniform is not None:

        def fn(ex, warp, cycle):
            return int(offset + int(base(ex, warp, cycle)) + int(uniform(ex, warp, cycle)))

    elif base is not None:

        def fn(ex, warp, cycle):
            return int(offset + int(base(ex, warp, cycle)))

    elif uniform is not None:

        def fn(ex, warp, cycle):
            return int(offset + int(uniform(ex, warp, cycle)))

    else:
        return _const(int(offset))
    return fn


def compile_operand_eval(op: Operand):
    """Compile one operand into an accessor ``fn(ex, warp, cycle) -> value``."""
    if isinstance(op, RegisterOperand):
        return _compile_register_eval(op)
    if isinstance(op, UniformRegisterOperand):
        return _CONST_ZERO if op.is_urz else _ureg_reader(op.index)
    if isinstance(op, PredicateOperand):
        if op.is_pt:
            return _const(not op.negated)
        read = _pred_reader(op.index)
        if not op.negated:
            return read

        def fn(ex, warp, cycle):
            return not read(ex, warp, cycle)

        return fn
    if isinstance(op, ImmediateOperand):
        return _const(op.value)
    if isinstance(op, ConstantMemoryOperand):
        bank, offset = op.bank, op.offset

        def fn(ex, warp, cycle):
            return ex.launch.constant(bank, offset)

        return fn
    if isinstance(op, SpecialRegisterOperand):
        name = op.name

        def fn(ex, warp, cycle):
            return ex._special_register(name, warp, cycle)

        return fn
    if isinstance(op, MemoryOperand):
        return _compile_address(op)
    if isinstance(op, LabelOperand):
        return _const(op.name)
    message = f"cannot evaluate operand {op!r}"

    def fail(ex, warp, cycle):
        raise ExecutionError(message)

    return fail


def compiled_predicate(instr: Instruction):
    """Compiled guard-predicate accessor of an instruction (``None`` if unguarded)."""
    if instr.predicate is None:
        return None
    cached = instr.__dict__.get("_cached_predicate_fn")
    if cached is None:
        cached = instr._cache("_cached_predicate_fn", compile_operand_eval(instr.predicate))
    return cached


# ---------------------------------------------------------------------------
# Destination write compilation (mirrors the seed _write_dest)
# ---------------------------------------------------------------------------
def _write_noop(warp, value, ready):
    return None


def _reg_writer(index: int):
    def write(warp, value, ready):
        regs = warp.registers
        regs.reg_stale[index] = regs.reg_value[index]
        regs.reg_value[index] = value
        regs.reg_ready_at[index] = ready

    return write


def _pred_writer(index: int):
    def write(warp, value, ready):
        regs = warp.registers
        regs.pred_stale[index] = regs.pred_value[index]
        regs.pred_value[index] = bool(value)
        regs.pred_ready_at[index] = ready

    return write


def _ureg_writer(index: int):
    def write(warp, value, ready):
        regs = warp.registers
        regs.ureg_stale[index] = regs.ureg_value[index]
        regs.ureg_value[index] = value
        regs.ureg_ready_at[index] = ready

    return write


def _constant_writer(write, constant):
    """``write`` storing ``constant`` whatever value the handler computed."""

    def write_constant(warp, value, ready):
        write(warp, constant, ready)

    return write_constant


def _compile_write(instr: Instruction):
    """Compile the destination writes into ``write(warp, value, ready)``.

    Cached on the instruction: its full and timing-only handlers share it.
    """
    cached = instr.__dict__.get("_cached_write")
    if cached is None:
        cached = instr._cache("_cached_write", _build_write(instr))
    return cached


def _build_write(instr: Instruction):
    dests = instr.dest_operands()
    writers = []
    if dests:
        dest = dests[0]
        if isinstance(dest, RegisterOperand):
            if not dest.is_rz:
                writers.append(_reg_writer(dest.index))
        elif isinstance(dest, PredicateOperand):
            if not dest.is_pt:
                writers.append(_pred_writer(dest.index))
        elif isinstance(dest, UniformRegisterOperand):
            if not dest.is_urz:
                writers.append(_ureg_writer(dest.index))
        # Secondary destinations (e.g. the second predicate of ISETP, the
        # carry predicate of IADD3.X) are written as "don't care" values.
        for extra in dests[1:]:
            if isinstance(extra, PredicateOperand) and not extra.is_pt:
                writers.append(_constant_writer(_pred_writer(extra.index), False))
            elif isinstance(extra, RegisterOperand) and not extra.is_rz:
                writers.append(_constant_writer(_reg_writer(extra.index), 0))
    if not writers:
        return _write_noop
    if len(writers) == 1:
        return writers[0]

    def write_all(warp, value, ready):
        for writer in writers:
            writer(warp, value, ready)

    return write_all


def _source_evals(instr: Instruction) -> tuple:
    """Compiled source accessors, cached on the instruction like :func:`_compile_write`."""
    cached = instr.__dict__.get("_cached_source_evals")
    if cached is None:
        cached = instr._cache(
            "_cached_source_evals",
            tuple(compile_operand_eval(op) for op in instr.source_operands()),
        )
    return cached


# ---------------------------------------------------------------------------
# Per-opcode compilers
# ---------------------------------------------------------------------------
def _compile_mov(instr: Instruction):
    fn0 = compile_operand_eval(instr.source_operands()[0])
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        value = fn0(ex, warp, cycle)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


# S2R/CS2R share the mov shape (eval one source, fixed result latency).
_compile_s2r = _compile_mov
_compile_cs2r = _compile_mov


def _compile_imad(instr: Instruction):
    fns = list(_source_evals(instr))
    while len(fns) < 3:
        fns.append(_CONST_ZERO)
    fn_a, fn_b, fn_c = fns[0], fns[1], fns[2]
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        a = fn_a(ex, warp, cycle)
        b = fn_b(ex, warp, cycle)
        c = fn_c(ex, warp, cycle)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or isinstance(c, np.ndarray):
            value = np.asarray(a) * np.asarray(b) + np.asarray(c)
        else:
            value = _as_int(a) * _as_int(b) + _as_int(c)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_iadd3(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        total = 0
        for fn in fns:
            s = fn(ex, warp, cycle)
            if isinstance(s, bool):
                continue
            total = total + (_as_int(s) if not isinstance(s, np.ndarray) else s)
        ready = cycle + latency
        write(warp, total, ready)
        outcome.completion_cycle = ready

    return run


def _compile_iabs(instr: Instruction):
    fn0 = compile_operand_eval(instr.source_operands()[0])
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        value = fn0(ex, warp, cycle)
        result = np.abs(value) if isinstance(value, np.ndarray) else abs(_as_int(value))
        ready = cycle + latency
        write(warp, result, ready)
        outcome.completion_cycle = ready

    return run


def _compile_lea(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        a = _as_int(srcs[0]) if srcs else 0
        b = _as_int(srcs[1]) if len(srcs) > 1 else 0
        shift = _as_int(srcs[2]) if len(srcs) > 2 else 0
        value = b + (a << shift)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_shf(instr: Instruction):
    fns = _source_evals(instr)
    shift_right = "R" in instr.modifiers
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        a = _as_int(srcs[0]) if srcs else 0
        amount = _as_int(srcs[1]) if len(srcs) > 1 else 0
        value = (a >> amount) if shift_right else (a << amount)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_lop3(instr: Instruction):
    fns = _source_evals(instr)
    mods = instr.modifiers
    if "OR" in mods:
        logic = 0
    elif "XOR" in mods:
        logic = 1
    else:
        logic = 2
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        ints = [_as_int(s) for s in srcs if not isinstance(s, bool)][:3]
        while len(ints) < 2:
            ints.append(0)
        if logic == 0:
            value = ints[0] | ints[1]
        elif logic == 1:
            value = ints[0] ^ ints[1]
        else:
            value = ints[0] & ints[1]
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


_CMP_FUNCS = {
    "GE": lambda a, b: a >= b,
    "GT": lambda a, b: a > b,
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
}


def _compile_isetp(instr: Instruction):
    fns = _source_evals(instr)
    cmp_fn = None
    for mod in instr.modifiers:
        if mod in _CMP_FUNCS:
            cmp_fn = _CMP_FUNCS[mod]
            break
    or_mode = "OR" in instr.modifiers
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [s for s in srcs if not isinstance(s, bool)]
        a = _as_int(numeric[0]) if numeric else 0
        b = _as_int(numeric[1]) if len(numeric) > 1 else 0
        result = bool(cmp_fn(a, b)) if cmp_fn is not None else False
        # Combine with the trailing source predicate (".AND" semantics).
        pred_srcs = [s for s in srcs if isinstance(s, bool)]
        if pred_srcs:
            if or_mode:
                result = result or pred_srcs[-1]
            else:
                result = result and pred_srcs[-1]
        ready = cycle + latency
        write(warp, result, ready)
        outcome.completion_cycle = ready

    return run


def _compile_imnmx(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [s for s in srcs if not isinstance(s, bool)]
        a, b = _as_int(numeric[0]), _as_int(numeric[1])
        use_min = True
        for s in srcs:
            if isinstance(s, bool):
                use_min = s
        value = min(a, b) if use_min else max(a, b)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_sel(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [s for s in srcs if not isinstance(s, bool)]
        preds = [s for s in srcs if isinstance(s, bool)]
        a = numeric[0] if numeric else 0
        b = numeric[1] if len(numeric) > 1 else 0
        condition = preds[-1] if preds else True
        value = a if condition else b
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _binary_float(op):
    def compiler(instr: Instruction):
        fns = _source_evals(instr)
        write = _compile_write(instr)
        latency = execution_latency(instr.opcode)

        def run(ex, warp, cycle, outcome):
            srcs = [fn(ex, warp, cycle) for fn in fns]
            numeric = [
                np.asarray(s, dtype=np.float32) for s in srcs if not isinstance(s, bool)
            ]
            a = numeric[0] if numeric else np.float32(0)
            b = numeric[1] if len(numeric) > 1 else np.float32(0)
            value = op(a, b)
            ready = cycle + latency
            write(warp, value, ready)
            outcome.completion_cycle = ready

        return run

    return compiler


def _compile_ffma(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [np.asarray(s, dtype=np.float32) for s in srcs if not isinstance(s, bool)]
        while len(numeric) < 3:
            numeric.append(np.float32(0))
        value = numeric[0] * numeric[1] + numeric[2]
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_fmnmx(instr: Instruction):
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [np.asarray(s, dtype=np.float32) for s in srcs if not isinstance(s, bool)]
        preds = [s for s in srcs if isinstance(s, bool)]
        a = numeric[0] if numeric else np.float32(0)
        b = numeric[1] if len(numeric) > 1 else np.float32(0)
        use_min = preds[-1] if preds else True
        value = np.minimum(a, b) if use_min else np.maximum(a, b)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _mufu_rcp(x):
    return np.where(x != 0, 1.0 / np.where(x == 0, 1.0, x), np.float32(np.inf))


def _mufu_rsq(x):
    return 1.0 / np.sqrt(np.maximum(x, np.float32(1e-30)))


def _mufu_lg2(x):
    return np.log2(np.maximum(x, np.float32(1e-30)))


def _mufu_sqrt(x):
    return np.sqrt(np.maximum(x, np.float32(0)))


def _mufu_identity(x):
    return x


def _compile_mufu(instr: Instruction):
    fn0 = compile_operand_eval(instr.source_operands()[0])
    mods = instr.modifiers
    if "RCP" in mods:
        func = _mufu_rcp
    elif "EX2" in mods:
        func = np.exp2
    elif "LG2" in mods:
        func = _mufu_lg2
    elif "RSQ" in mods:
        func = _mufu_rsq
    elif "SQRT" in mods:
        func = _mufu_sqrt
    else:
        func = _mufu_identity
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        source = fn0(ex, warp, cycle)
        value = func(np.asarray(source, dtype=np.float32))
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_convert(instr: Instruction):
    fn0 = compile_operand_eval(instr.source_operands()[0])
    base = instr.base_opcode
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    if base == "I2F":

        def convert(source):
            if not isinstance(source, np.ndarray):
                return np.float32(_as_int(source))
            return source.astype(np.float32)

    elif base == "F2I":

        def convert(source):
            if not isinstance(source, np.ndarray):
                return int(np.asarray(source, dtype=np.float32))
            return source.astype(np.int64)

    else:  # F2F / I2I: representation changes we do not model numerically

        def convert(source):
            return source

    def run(ex, warp, cycle, outcome):
        value = convert(fn0(ex, warp, cycle))
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _hmma_shapes(instr: Instruction) -> tuple[int, int, int]:
    """Decode the (m, n, k) shape from an HMMA modifier.

    Two encodings are accepted: the explicit ``M_N_K`` form emitted by the
    mini-Triton backend (``HMMA.16_8_16``) and the classic concatenated names
    used in real Ampere listings (``HMMA.16816``).
    """
    known = {"16816": (16, 8, 16), "1688": (16, 8, 8), "884": (8, 8, 4), "161616": (16, 16, 16)}
    for mod in instr.modifiers:
        if "_" in mod:
            parts = mod.split("_")
            if len(parts) == 3 and all(p.isdigit() for p in parts):
                return (int(parts[0]), int(parts[1]), int(parts[2]))
        if mod in known:
            return known[mod]
    return (16, 8, 16)


def _compile_hmma(instr: Instruction):
    m, n, k = _hmma_shapes(instr)
    transpose_b = "TB" in instr.modifiers
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        numeric = [np.asarray(s, dtype=np.float32) for s in srcs if not isinstance(s, bool)]
        while len(numeric) < 3:
            numeric.append(np.zeros(1, dtype=np.float32))
        a = _reshape_fragment(numeric[0], (m, k))
        if transpose_b:
            # B fragment stored (n, k) row-major; transpose before the multiply.
            b = _reshape_fragment(numeric[1], (n, k)).T
        else:
            b = _reshape_fragment(numeric[1], (k, n))
        c = _reshape_fragment(numeric[2], (m, n))
        value = (a @ b + c).reshape(-1)
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _reshape_fragment(array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    needed = shape[0] * shape[1]
    flat = np.asarray(array, dtype=np.float32).reshape(-1)
    if flat.size == needed:
        return flat.reshape(shape)
    if flat.size > needed:
        return flat[:needed].reshape(shape)
    out = np.zeros(needed, dtype=np.float32)
    out[: flat.size] = flat
    return out.reshape(shape)


def _compile_redux(instr: Instruction):
    """Row-wise reduction of a fragment.

    ``REDUX.MAX Rd, Rs, 0x40`` reduces every row of length 0x40 in the source
    fragment; a row length of 0 (or omitted) reduces the whole fragment to a
    scalar.  Supported modifiers: MAX, MIN, ADD.
    """
    fns = _source_evals(instr)
    mods = instr.modifiers
    if "ADD" in mods or "SUM" in mods:
        reduce_kind = 0
    elif "MIN" in mods:
        reduce_kind = 1
    else:
        reduce_kind = 2
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        fragment = np.asarray(srcs[0], dtype=np.float32).reshape(-1)
        row = _as_int(srcs[1]) if len(srcs) > 1 else 0
        if row and fragment.size % row == 0 and fragment.size > row:
            grid = fragment.reshape(-1, row)
        else:
            grid = fragment.reshape(1, -1)
        if reduce_kind == 0:
            value = grid.sum(axis=1)
        elif reduce_kind == 1:
            value = grid.min(axis=1)
        else:
            value = grid.max(axis=1)
        if value.size == 1:
            value = np.float32(value[0])
        ready = cycle + latency
        write(warp, value, ready)
        outcome.completion_cycle = ready

    return run


def _compile_fbcast(instr: Instruction):
    """Row-broadcast arithmetic: combine a fragment with a per-row vector.

    ``FBCAST.SUB Rd, Rfrag, Rrow, 0x40`` computes ``frag[i, :] op row[i]`` for
    rows of length 0x40.  Supported modifiers: ADD, SUB, MUL, DIV.
    """
    fns = _source_evals(instr)
    mods = instr.modifiers
    if "SUB" in mods:
        combine_kind = 0
    elif "MUL" in mods:
        combine_kind = 1
    elif "DIV" in mods:
        combine_kind = 2
    else:
        combine_kind = 3
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        fragment = np.asarray(srcs[0], dtype=np.float32).reshape(-1)
        rowvec = np.asarray(srcs[1], dtype=np.float32).reshape(-1)
        row = _as_int(srcs[2]) if len(srcs) > 2 else fragment.size
        row = row or fragment.size
        if fragment.size < row or fragment.size % row:
            # A scalar (or not-yet-materialised) fragment broadcasts to the full
            # (rows, row) tile implied by the per-row vector.
            fragment = np.full(max(rowvec.size, 1) * row, fragment.reshape(-1)[0], dtype=np.float32)
        grid = fragment.reshape(-1, row)
        col = rowvec.reshape(-1, 1) if rowvec.size == grid.shape[0] else rowvec.reshape(1, -1)
        if combine_kind == 0:
            value = grid - col
        elif combine_kind == 1:
            value = grid * col
        elif combine_kind == 2:
            value = grid / np.where(col == 0, np.float32(1.0), col)
        else:
            value = grid + col
        ready = cycle + latency
        write(warp, value.reshape(-1), ready)
        outcome.completion_cycle = ready

    return run


# ---------------------------------------------------------------------------
# Memory instruction compilers
# ---------------------------------------------------------------------------
# Every memory compiler takes ``timing_only``.  The timing-only handler shares
# the address, request and latency code of the full one and keeps every check
# the byte movement would make (bounds of each row, the dtype view of the
# gathered bytes, the float32 conversion of stored data), but moves no bytes:
# a load writes a stand-in of the fragment's shape (see "Timing-only handlers").
def _row_layout(instr: Instruction, nbytes: int) -> tuple[int, int]:
    """Optional (row_bytes, row_stride) trailing immediates of a memory access.

    Real memory instructions address 32 lanes individually, which lets one
    instruction gather/scatter a strided 2-D tile.  The mini-Triton backend
    encodes that per-lane layout as two trailing immediates; contiguous
    accesses omit them.
    """
    imms = [op for op in instr.operands if isinstance(op, ImmediateOperand) and not op.is_float]
    if len(imms) >= 2:
        row_bytes = int(imms[-2].value)
        row_stride = int(imms[-1].value)
        if 0 < row_bytes <= nbytes and row_stride > 0:
            return row_bytes, row_stride
    return nbytes, nbytes


@lru_cache(maxsize=None)
def _row_spans(nbytes: int, row_bytes: int, stride: int) -> tuple[tuple[int, int], ...]:
    """``(offset, length)`` of every row an access of ``nbytes`` touches (shared)."""
    rows = max(1, nbytes // row_bytes)
    if rows == 1:
        return ((0, nbytes),)
    return tuple((r * stride, row_bytes) for r in range(rows))


def _memory_geometry(instr: Instruction) -> tuple[int, int, int]:
    nbytes = access_bytes(instr)
    row_bytes, stride = _row_layout(instr, nbytes)
    return nbytes, row_bytes, stride


def _load_spans(instr: Instruction):
    """Bytes per access, its rows, and the bytes those rows gather."""
    nbytes, row_bytes, stride = _memory_geometry(instr)
    spans = _row_spans(nbytes, row_bytes, stride)
    return nbytes, spans, sum(n for _, n in spans)


def _store_spans(nbytes: int, row_bytes: int, stride: int, itemsize: int):
    """Rows a store's payload (``nbytes`` truncated to whole elements) covers."""
    return _row_spans(nbytes // itemsize * itemsize, row_bytes, stride)


def _gather(memory, address: int, spans) -> np.ndarray:
    if len(spans) == 1:
        return memory.read_bytes(address, spans[0][1])
    return np.concatenate([memory.read_bytes(address + offset, n) for offset, n in spans])


def _scatter(memory, address: int, data: np.ndarray, spans) -> None:
    data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    if len(spans) == 1:
        memory.write_bytes(address, data)
        return
    for row, (offset, n) in enumerate(spans):
        memory.write_bytes(address + offset, data[row * n : (row + 1) * n])


def _check_rows(memory, address: int, spans) -> None:
    """The bounds checks :func:`_gather` / :func:`_scatter` make, without the bytes."""
    offset, n = spans[-1]
    if memory.in_bounds(address, offset + n):
        return  # every row lies inside this one in-bounds range
    # Row by row, so the first out-of-bounds row raises, as it would on access.
    for offset, n in spans:
        memory.check_range(address + offset, n)


def _check_view(nbytes: int, dtype: np.dtype) -> None:
    """The size check of viewing ``nbytes`` gathered bytes as ``dtype``."""
    if nbytes % dtype.itemsize:
        raise ValueError(
            f"cannot view {nbytes} bytes as {dtype}: not a multiple of its {dtype.itemsize}-byte size"
        )


def _compile_ldg(instr: Instruction, timing_only: bool = False):
    address_fn = _compile_address(instr.memory_operands()[0])
    nbytes, spans, gathered = _load_spans(instr)
    write = _compile_write(instr)
    fallback_latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        address = address_fn(ex, warp, cycle)
        request = MemoryRequest(space="global", address=address, nbytes=nbytes, is_store=False)
        model = ex.memory_latency
        latency = model(request, cycle) if model is not None else fallback_latency
        memory = ex.launch.global_memory
        dtype = memory.dtype_at(address)
        ready = cycle + latency
        if timing_only:
            _check_rows(memory, address, spans)
            _check_view(gathered, dtype)
            write(warp, _stand_in((gathered // dtype.itemsize,)), ready)
        else:
            raw = _gather(memory, address, spans)
            write(warp, raw.view(dtype).astype(np.float32), ready)
        outcome.is_memory = True
        outcome.memory_request = request
        outcome.completion_cycle = ready

    return run


def _store_data_fn(instr: Instruction):
    data_ops = [op for op in instr.source_operands() if isinstance(op, RegisterOperand)]
    return compile_operand_eval(data_ops[-1]) if data_ops else _CONST_ZERO


def _compile_stg(instr: Instruction, timing_only: bool = False):
    address_fn = _compile_address(instr.memory_operands()[0])
    nbytes, row_bytes, stride = _memory_geometry(instr)
    data_fn = _store_data_fn(instr)
    fallback_latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        address = address_fn(ex, warp, cycle)
        memory = ex.launch.global_memory
        dtype = memory.dtype_at(address)
        spans = _store_spans(nbytes, row_bytes, stride, dtype.itemsize)
        if timing_only:
            _float_shape(data_fn(ex, warp, cycle))
            _check_rows(memory, address, spans)
        else:
            payload = ex._fragment_to_bytes(data_fn(ex, warp, cycle), dtype, nbytes)
            _scatter(memory, address, payload, spans)
        request = MemoryRequest(space="global", address=address, nbytes=nbytes, is_store=True)
        model = ex.memory_latency
        latency = model(request, cycle) if model is not None else fallback_latency
        outcome.is_memory = True
        outcome.memory_request = request
        outcome.completion_cycle = cycle + latency

    return run


_LDS_DTYPE = np.dtype(np.float16)


def _compile_lds(instr: Instruction, timing_only: bool = False):
    address_fn = _compile_address(instr.memory_operands()[0])
    nbytes, spans, gathered = _load_spans(instr)
    write = _compile_write(instr)
    fallback_latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        offset = address_fn(ex, warp, cycle)
        request = MemoryRequest(space="shared", address=offset, nbytes=nbytes, is_store=False)
        model = ex.memory_latency
        latency = model(request, cycle) if model is not None else fallback_latency
        ready = cycle + latency
        if timing_only:
            _check_rows(ex.shared, offset, spans)
            _check_view(gathered, _LDS_DTYPE)
            write(warp, _stand_in((gathered // _LDS_DTYPE.itemsize,)), ready)
        else:
            raw = _gather(ex.shared, offset, spans)
            write(warp, raw.view(_LDS_DTYPE).astype(np.float32), ready)
        outcome.is_memory = True
        outcome.memory_request = request
        outcome.completion_cycle = ready

    return run


def _compile_sts(instr: Instruction, timing_only: bool = False):
    address_fn = _compile_address(instr.memory_operands()[0])
    nbytes, row_bytes, stride = _memory_geometry(instr)
    spans = _store_spans(nbytes, row_bytes, stride, _LDS_DTYPE.itemsize)
    data_fn = _store_data_fn(instr)
    fallback_latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        offset = address_fn(ex, warp, cycle)
        if timing_only:
            _float_shape(data_fn(ex, warp, cycle))
            _check_rows(ex.shared, offset, spans)
        else:
            payload = ex._fragment_to_bytes(data_fn(ex, warp, cycle), _LDS_DTYPE, nbytes)
            _scatter(ex.shared, offset, payload, spans)
        request = MemoryRequest(space="shared", address=offset, nbytes=nbytes, is_store=True)
        model = ex.memory_latency
        latency = model(request, cycle) if model is not None else fallback_latency
        outcome.is_memory = True
        outcome.memory_request = request
        outcome.completion_cycle = cycle + latency

    return run


def _compile_ldgsts(instr: Instruction, timing_only: bool = False):
    mem_ops = instr.memory_operands()
    if len(mem_ops) < 2:
        message = f"LDGSTS needs a shared and a global address: {instr.render()}"

        def fail(ex, warp, cycle, outcome):
            raise ExecutionError(message)

        return fail
    shared_fn = _compile_address(mem_ops[0])
    global_fn = _compile_address(mem_ops[1])
    nbytes, spans, gathered = _load_spans(instr)
    fallback_latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        shared_offset = shared_fn(ex, warp, cycle)
        global_address = global_fn(ex, warp, cycle)
        memory = ex.launch.global_memory
        if timing_only:
            _check_rows(memory, global_address, spans)
            ex.shared.check_range(shared_offset, gathered)
        else:
            ex.shared.write_bytes(shared_offset, _gather(memory, global_address, spans))
        request = MemoryRequest(space="async_copy", address=global_address, nbytes=nbytes, is_store=False)
        model = ex.memory_latency
        latency = model(request, cycle) if model is not None else fallback_latency
        outcome.is_memory = True
        outcome.memory_request = request
        outcome.completion_cycle = cycle + latency

    return run


# ---------------------------------------------------------------------------
# Control flow compilers
# ---------------------------------------------------------------------------
def _compile_bra(instr: Instruction):
    target = None
    for op in instr.operands:
        if isinstance(op, LabelOperand):
            target = op.name
    rendered = instr.render()

    def run(ex, warp, cycle, outcome):
        if target is None or target not in ex.labels:
            raise ExecutionError(f"branch to unknown label in {rendered}")
        warp.pc = ex.labels[target] + 1
        outcome.branched = True
        outcome.completion_cycle = cycle + 2

    return run


def _compile_exit(instr: Instruction):
    def run(ex, warp, cycle, outcome):
        warp.finished = True
        outcome.exited = True

    return run


def _compile_bar(instr: Instruction):
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        outcome.hit_block_barrier = True
        outcome.completion_cycle = cycle + latency

    return run


def _compile_nop(instr: Instruction):
    def run(ex, warp, cycle, outcome):
        outcome.completion_cycle = cycle + 1

    return run


def _compile_depbar(instr: Instruction):
    # DEPBAR / LDGDEPBAR: wait for outstanding scoreboard slots named in the
    # wait mask (already handled) plus the slot operand if present.
    def run(ex, warp, cycle, outcome):
        outcome.completion_cycle = cycle + 2

    return run


_COMPILERS = {
    "MOV": _compile_mov,
    "UMOV": _compile_mov,
    "S2R": _compile_s2r,
    "CS2R": _compile_cs2r,
    "IMAD": _compile_imad,
    "UIMAD": _compile_imad,
    "IADD3": _compile_iadd3,
    "UIADD3": _compile_iadd3,
    "IABS": _compile_iabs,
    "LEA": _compile_lea,
    "ULEA": _compile_lea,
    "SHF": _compile_shf,
    "USHF": _compile_shf,
    "SHL": _compile_shf,
    "SHR": _compile_shf,
    "LOP3": _compile_lop3,
    "ULOP3": _compile_lop3,
    "ISETP": _compile_isetp,
    "IMNMX": _compile_imnmx,
    "SEL": _compile_sel,
    "USEL": _compile_sel,
    "FSEL": _compile_sel,
    "FADD": _binary_float(lambda a, b: a + b),
    "FMUL": _binary_float(lambda a, b: a * b),
    "HADD2": _binary_float(lambda a, b: a + b),
    "HMUL2": _binary_float(lambda a, b: a * b),
    "FFMA": _compile_ffma,
    "HFMA2": _compile_ffma,
    "FMNMX": _compile_fmnmx,
    "HMNMX2": _compile_fmnmx,
    "MUFU": _compile_mufu,
    "I2F": _compile_convert,
    "F2I": _compile_convert,
    "F2F": _compile_convert,
    "I2I": _compile_convert,
    "HMMA": _compile_hmma,
    "IMMA": _compile_hmma,
    "REDUX": _compile_redux,
    "FBCAST": _compile_fbcast,
    "LDG": _compile_ldg,
    "LDL": _compile_ldg,
    "LDC": _compile_ldg,
    "STG": _compile_stg,
    "STL": _compile_stg,
    "LDS": _compile_lds,
    "LDSM": _compile_lds,
    "STS": _compile_sts,
    "LDGSTS": _compile_ldgsts,
    "BRA": _compile_bra,
    "EXIT": _compile_exit,
    "RET": _compile_exit,
    "BAR": _compile_bar,
    "WARPSYNC": _compile_nop,
    "NOP": _compile_nop,
    "DEPBAR": _compile_depbar,
    "LDGDEPBAR": _compile_depbar,
    "MEMBAR": _compile_depbar,
    "YIELD": _compile_nop,
}

_HANDLER_ABSENT = object()


def compile_instruction(instr: Instruction):
    """Compile an instruction into its bound handler (``None`` if unmodelled).

    The closure is cached on the (immutable) instruction; unmodelled opcodes
    cache ``None`` so the executor raises only when such an instruction is
    actually executed un-predicated, like the seed dict dispatch did.  A
    compiler that fails eagerly (e.g. a degenerate operand list whose seed
    handler would have raised at execution) compiles to a closure that
    re-raises the same error at execution time.
    """
    cached = instr.__dict__.get("_cached_handler", _HANDLER_ABSENT)
    if cached is not _HANDLER_ABSENT:
        return cached
    compiler = _COMPILERS.get(instr.base_opcode)
    if compiler is None:
        handler = None
    else:
        try:
            handler = compiler(instr)
        except Exception as exc:  # noqa: BLE001 - deferred to execution time
            handler = _DeferredError(type(exc), exc.args)
    return instr._cache("_cached_handler", handler)


class _DeferredError:
    """Handler that re-raises a compile-time error when the instruction executes.

    It raises a fresh instance per execution: the handler is cached on a
    shared instruction, and re-raising one exception object from concurrent
    measuring threads would race on its traceback (and pin compile frames).
    """

    __slots__ = ("exc_type", "exc_args")

    def __init__(self, exc_type: type, exc_args: tuple) -> None:
        self.exc_type = exc_type
        self.exc_args = exc_args

    def __call__(self, ex, warp, cycle, outcome):
        raise self.exc_type(*self.exc_args)


# ---------------------------------------------------------------------------
# Timing-only handlers
# ---------------------------------------------------------------------------
# The timing view (see :mod:`repro.sim.program`) needs exact values only in
# the registers of its slice.  Every other register holds a *stand-in*: an
# array of the exact shape the full handlers would have written, with
# arbitrary contents.  Whether a data-only handler raises depends only on
# shapes (numpy broadcasting, ``bool()`` of a fragment), so the handlers
# below raise exactly when the full ones would while moving no bytes and
# doing no arithmetic.

_STAND_INS: dict = {}


def _stand_in(shape: tuple) -> np.ndarray:
    """A cached read-only zero-stride float32 array of ``shape``."""
    stand_in = _STAND_INS.get(shape)
    if stand_in is None:
        stand_in = _STAND_INS.setdefault(shape, np.broadcast_to(np.float32(0), shape))
    return stand_in


def _float_shape(value) -> tuple:
    """Shape of ``np.asarray(value, dtype=np.float32)``, raising as that would."""
    if isinstance(value, np.ndarray):
        return value.shape
    return np.asarray(value, dtype=np.float32).shape


def _broadcast(shapes) -> tuple:
    """``np.broadcast_shapes(*shapes)``, short-cutting equal and scalar shapes."""
    out = ()
    for shape in shapes:
        if shape == out or not shape:
            continue
        out = shape if not out else np.broadcast_shapes(out, shape)
    return out


def _compile_float_timing(instr: Instruction, result_shape):
    """Float math without the arithmetic: the full handler's operand reads and
    float32 conversions, then a stand-in of ``result_shape(source shapes)``."""
    fns = _source_evals(instr)
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        srcs = [fn(ex, warp, cycle) for fn in fns]
        shapes = [_float_shape(s) for s in srcs if not isinstance(s, bool)]
        ready = cycle + latency
        write(warp, _stand_in(result_shape(shapes)), ready)
        outcome.completion_cycle = ready

    return run


def _compile_mufu_timing(instr: Instruction):
    # MUFU reads only its first source, and converts it even if it is a predicate.
    fn0 = compile_operand_eval(instr.source_operands()[0])
    write = _compile_write(instr)
    latency = execution_latency(instr.opcode)

    def run(ex, warp, cycle, outcome):
        ready = cycle + latency
        write(warp, _stand_in(_float_shape(fn0(ex, warp, cycle))), ready)
        outcome.completion_cycle = ready

    return run


def _compile_hmma_timing(instr: Instruction):
    m, n, _ = _hmma_shapes(instr)
    return _compile_float_timing(instr, lambda shapes: (m * n,))


def _binary_shape(shapes):
    return _broadcast(shapes[:2])


def _ternary_shape(shapes):
    return _broadcast(shapes[:3])


_TIMING_COMPILERS = {
    **dict.fromkeys(
        ("FADD", "FMUL", "HADD2", "HMUL2", "FMNMX", "HMNMX2"),
        partial(_compile_float_timing, result_shape=_binary_shape),
    ),
    **dict.fromkeys(("FFMA", "HFMA2"), partial(_compile_float_timing, result_shape=_ternary_shape)),
    "MUFU": _compile_mufu_timing,
    "HMMA": _compile_hmma_timing,
    "IMMA": _compile_hmma_timing,
    **{
        opcode: partial(_COMPILERS[opcode], timing_only=True)
        for opcode in ("LDG", "LDL", "LDC", "STG", "STL", "LDS", "LDSM", "STS", "LDGSTS")
    },
}

#: Opcodes whose full handler is already timing-safe: it only passes values
#: through or reduces and broadcasts fragments, so on stand-ins it raises
#: exactly as on real values.  The timing view runs it unchanged.
_SHAPE_SAFE_OPCODES = frozenset(
    {"MOV", "UMOV", "S2R", "CS2R", "SEL", "USEL", "FSEL", "F2F", "I2I", "REDUX", "FBCAST"}
)

#: Source index of the row length ``REDUX`` / ``FBCAST`` pass to ``int()``:
#: the one data source they need by value.
_ROW_LENGTH_SOURCE = {"REDUX": 1, "FBCAST": 2}


def timing_value_sources(instr: Instruction) -> tuple:
    """Sources a timing-only handler reads by value rather than by shape.

    Addresses, the ``REDUX`` / ``FBCAST`` row length, and the predicates an
    instruction in :data:`_SHAPE_SAFE_OPCODES` reads (``SEL``'s condition
    picks whose shape flows on).  Every other data source of a timing-only
    handler may hold a stand-in.
    """
    sources = instr.source_operands()
    needed = [op for op in sources if isinstance(op, MemoryOperand)]
    if instr.base_opcode in _SHAPE_SAFE_OPCODES:
        needed += [op for op in sources if isinstance(op, PredicateOperand)]
    row = _ROW_LENGTH_SOURCE.get(instr.base_opcode)
    if row is not None and len(sources) > row:
        needed.append(sources[row])
    return tuple(needed)


def compile_timing_handler(instr: Instruction):
    """The timing-only handler of an instruction, or ``None`` if it has none.

    A timing-only handler sets the same completion cycle, memory request and
    ``is_memory`` flag as the full handler and raises whenever the full
    handler would: memory accesses keep their bounds and view-size checks,
    data-only results keep their shapes.  It moves no bytes and does no
    arithmetic.  Control flow, integer ALU and ``I2F``/``F2I`` (which convert
    values with ``int()``) have none, nor does an instruction whose full
    handler failed to compile.  Cached on the instruction like
    :func:`compile_instruction`.
    """
    cached = instr.__dict__.get("_cached_timing_handler", _HANDLER_ABSENT)
    if cached is not _HANDLER_ABSENT:
        return cached
    handler = None
    full = compile_instruction(instr)
    if full is not None and not isinstance(full, _DeferredError):
        base = instr.base_opcode
        if base in _SHAPE_SAFE_OPCODES:
            handler = full
        elif base in _TIMING_COMPILERS:
            handler = _TIMING_COMPILERS[base](instr)
    return instr._cache("_cached_timing_handler", handler)
