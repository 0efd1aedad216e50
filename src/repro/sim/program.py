"""Decoded-program layer: per-kernel precomputation for the simulators.

Every candidate measurement in the assembly game replays the same static
instructions thousands of times, and the simulators used to re-derive the
same facts on every dynamic issue: skip labels around the pc, rebuild the
read/write register frozensets, re-split the opcode to find the handler and
the tensor/memory classification.  This module computes all of it exactly
once per *static* instruction and once per *kernel*:

* :class:`DecodedInstr` — everything the issue loop needs about one
  instruction: the bound opcode handler, sorted read registers, the
  ``.reuse``-flagged reads, the bank conflicts of its operand fetch, the
  written-register set, wait mask / issue gap / barrier fields of the control
  code, and the memory / tensor-core classification.  Records are cached on
  the (immutable) instruction object itself, so the mutated schedules of a
  search — which share almost all instruction objects with their parent —
  decode almost for free.
* :class:`DecodedProgram` — the per-kernel view: label positions, a
  ``next_instr_pc`` table with labels pre-skipped (what ``_peek`` used to do
  per issued instruction), the decoded record per listing index, two
  handler tables (the full handlers and the *timing view*), and the sizes of
  the flat register lists (:class:`repro.sim.executor.RegisterFile`).
* :class:`TimingSlice` — which registers the timing view must keep exact: a
  flow-insensitive backward slice from every address, guard predicate and
  branch.  An instruction writing none of them runs its timing-only handler
  in the view (:func:`repro.sim.executor.compile_timing_handler`).  It keeps
  latency, scoreboard effects, the memory request and every bounds and
  view-size check, and it writes shape-exact stand-ins instead of values.
  If a load writes a slice register, loaded bytes reach the timing, so the
  view of that program keeps every full handler.

Why a flow-insensitive slice stays sound under stale reads and illegal
schedules: every write to a slice register comes from an instruction that
runs its full handler on slice registers only.  By induction over issue
order, each slice register then holds at every cycle the same value, ready
cycle and stale value as in the full engine.  That holds whichever earlier
write a stale read sees, and whatever order an illegal schedule gives the
instructions.  A flow-sensitive slice would have to be rebuilt per schedule
and would have to prove which write each read sees, which is exactly what an
illegal schedule breaks.  The slice ignores order, so it is computed once per
instruction multiset and shared across :meth:`SassKernel.swap
<repro.sass.kernel.SassKernel.swap>` through the kernel's
:meth:`~repro.sass.kernel.SassKernel.multiset_cache`.

Programs are cached in a digest-keyed, LRU-bounded module table shared by
every simulator in the process (and additionally pinned on the kernel object
for identity-level hits).  The cache is thread-safe: the worker threads of a
:class:`~repro.pool.SessionPool` decode concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.arch.registers import REGISTER_BANKS, bank_conflicts
from repro.sass.instruction import Instruction, Label
from repro.sass.kernel import SassKernel
from repro.sass.operands import (
    MemoryOperand,
    PredicateOperand,
    RegisterOperand,
    UniformRegisterOperand,
)
from repro.sim.executor import (
    compile_instruction,
    compile_timing_handler,
    compiled_predicate,
    timing_value_sources,
)

#: Tensor-core opcodes throttled by the HMMA issue interval (see sm.py).
TENSOR_OPCODES = frozenset({"HMMA", "IMMA"})

#: Default bound of the module-level decoded-program LRU.
DEFAULT_PROGRAM_CACHE_SIZE = 256


@dataclass(frozen=True, slots=True)
class DecodedInstr:
    """Issue-loop metadata of one static instruction, computed once."""

    instr: Instruction
    #: Compiled per-instruction handler closure, or ``None`` for unmodelled
    #: opcodes (the executor raises only when such an instruction actually
    #: executes un-predicated, exactly like the dict-dispatch path did).
    handler: Callable | None
    #: Compiled guard-predicate accessor, or ``None`` when unguarded.
    predicate_fn: Callable | None
    #: Sorted general-purpose registers read (operand-collector fetch set).
    read_regs: tuple[int, ...]
    #: The reads carrying the ``.reuse`` flag, in ``read_regs`` order.
    reuse_reads: tuple[int, ...]
    #: Bank conflicts of fetching ``read_regs`` with an empty reuse cache on
    #: :data:`~repro.arch.registers.REGISTER_BANKS` banks (every shipped
    #: backend); the issue loop recounts for other bank counts.
    bank_conflicts: int
    #: Registers written (reuse-cache invalidation set).
    written_regs: frozenset[int]
    #: Scoreboard slots waited on before issue.
    wait_mask: tuple[int, ...]
    #: Cycles from this issue to the warp's next: the stall count, at least 1.
    issue_gap: int
    read_barrier: int | None
    write_barrier: int | None
    is_memory: bool
    is_tensor: bool
    base_opcode: str
    #: Handler of the timing view, or ``None`` when the full one always runs
    #: (see :func:`repro.sim.executor.compile_timing_handler`).
    timing_handler: Callable | None
    #: Register keys (``("r" | "p" | "ur", index)``) the handler writes ...
    dest_keys: tuple
    #: ... and reads, the guard predicate and address bases included.
    source_keys: tuple
    #: Keys whose value the timing view needs whatever the slice: the guard
    #: predicate and the sources the timing-only handler reads by value, or
    #: every source when there is no timing-only handler.
    root_keys: tuple


_KEYS: dict = {}


def _key(space: str, index: int) -> tuple:
    """The interned register key ``(space, index)``."""
    return _KEYS.setdefault((space, index), (space, index))


def _operand_keys(operands) -> tuple:
    """Register keys of the operands, as the handlers read or write them."""
    keys = []
    for op in operands:
        if isinstance(op, RegisterOperand):
            if not op.is_rz:
                keys.append(_key("r", op.index))
        elif isinstance(op, PredicateOperand):
            if not op.is_pt:
                keys.append(_key("p", op.index))
        elif isinstance(op, UniformRegisterOperand):
            if not op.is_urz:
                keys.append(_key("ur", op.index))
        elif isinstance(op, MemoryOperand):
            keys.extend(_operand_keys((op.base, op.uniform_base)))
    return tuple(dict.fromkeys(keys))


def decode_instruction(instr: Instruction) -> DecodedInstr:
    """Decode one instruction, caching the record on the instruction object."""
    cached = instr.__dict__.get("_cached_decoded")
    if cached is not None:
        return cached
    control = instr.control
    base = instr.base_opcode
    timing_handler = compile_timing_handler(instr)
    guard_keys = _operand_keys((instr.predicate,))
    source_keys = tuple(dict.fromkeys(guard_keys + _operand_keys(instr.source_operands())))
    read_regs = tuple(sorted(instr.read_registers()))
    reused = {
        op.index
        for op in instr.operands
        if isinstance(op, RegisterOperand) and op.reuse and not op.is_rz
    }
    record = DecodedInstr(
        instr=instr,
        handler=compile_instruction(instr),
        predicate_fn=compiled_predicate(instr),
        read_regs=read_regs,
        reuse_reads=tuple(reg for reg in read_regs if reg in reused),
        bank_conflicts=bank_conflicts(read_regs, REGISTER_BANKS),
        written_regs=instr.written_registers(),
        wait_mask=tuple(sorted(control.wait_mask)),
        issue_gap=max(control.stall, 1),
        read_barrier=control.read_barrier,
        write_barrier=control.write_barrier,
        is_memory=instr.is_memory,
        is_tensor=base in TENSOR_OPCODES,
        base_opcode=base,
        timing_handler=timing_handler,
        dest_keys=_operand_keys(instr.dest_operands()),
        source_keys=source_keys,
        root_keys=(
            tuple(dict.fromkeys(guard_keys + _operand_keys(timing_value_sources(instr))))
            if timing_handler is not None
            else source_keys
        ),
    )
    return instr._cache("_cached_decoded", record)


@dataclass(frozen=True, slots=True)
class TimingSlice:
    """The register keys whose values can reach a cycle count.

    A flow-insensitive backward slice over one instruction multiset.  The
    roots are every guard predicate, every source a timing-only handler reads
    by value (addresses, ``REDUX``/``FBCAST`` row lengths, ``SEL``
    conditions) and every source of an instruction without a timing-only
    handler; an instruction writing a
    key in the slice runs its full handler, so its sources join.  Reordering
    the instructions cannot change it, so it is computed once per multiset.
    """

    keys: frozenset
    #: Some load writes a key in the slice: loaded values reach the timing,
    #: so memory contents (and the stores that write them) do too.  The
    #: timing view then keeps every full handler.
    load_fed: bool

    def elides(self, rec: DecodedInstr) -> bool:
        """Whether the timing view runs ``rec``'s timing-only handler."""
        return (
            not self.load_fed
            and rec.timing_handler is not None
            and self.keys.isdisjoint(rec.dest_keys)
        )


def compute_timing_slice(records) -> TimingSlice:
    """Backward slice of :class:`DecodedInstr` records (labels excluded)."""
    writers: dict = {}
    keys: set = set()
    for rec in records:
        keys.update(rec.root_keys)
        for key in rec.dest_keys:
            writers.setdefault(key, []).append(rec)
    pending = list(keys)
    while pending:
        for writer in writers.get(pending.pop(), ()):
            for key in writer.source_keys:
                if key not in keys:
                    keys.add(key)
                    pending.append(key)
    load_fed = any(rec.is_memory and not keys.isdisjoint(rec.dest_keys) for rec in records)
    return TimingSlice(frozenset(keys), load_fed)


@dataclass(frozen=True, slots=True)
class DecodedProgram:
    """Per-kernel precomputation shared by every simulation of the kernel."""

    lines: tuple
    num_lines: int
    #: Label name -> listing index (branch targets).
    label_positions: dict
    #: ``next_instr_pc[pc]`` is the listing index of the first instruction at
    #: or after ``pc`` (labels pre-skipped), or ``num_lines`` when none is
    #: left.  Length ``num_lines + 1`` so ``pc == num_lines`` is a valid key.
    next_instr_pc: tuple[int, ...]
    #: Decoded record per listing index (``None`` on label lines).
    decoded: tuple
    #: Full handler per listing index (what functional execution runs).
    handlers: tuple
    #: Handler per listing index in the timing view: the timing-only handler
    #: where :attr:`timing_slice` elides the instruction, else the full one.
    timing_handlers: tuple
    timing_slice: TimingSlice
    #: Lengths of a warp's flat register lists: one past the highest
    #: general, predicate and uniform register index the program names.
    register_counts: tuple[int, int, int]


def _register_counts(records) -> tuple[int, int, int]:
    top = {"r": 0, "p": 0, "ur": 0}
    for rec in records:
        for space, index in rec.dest_keys + rec.source_keys:
            if index >= top[space]:
                top[space] = index + 1
    return top["r"], top["p"], top["ur"]


def build_program_from_lines(lines, multiset_cache: dict | None = None) -> DecodedProgram:
    """Uncached decode of a bare line sequence.

    For callers that construct a :class:`~repro.sim.executor.WarpExecutor`
    directly from lines, without a kernel to key the digest cache on.  The
    per-instruction records still hit their caches on the instruction objects.
    ``multiset_cache`` (a kernel's :meth:`~repro.sass.kernel.SassKernel.multiset_cache`)
    supplies or keeps the timing slice and the register counts, which every
    reordering shares.
    """
    lines = tuple(lines)
    num_lines = len(lines)
    label_positions = {
        line.name: i for i, line in enumerate(lines) if isinstance(line, Label)
    }
    next_instr = [num_lines] * (num_lines + 1)
    for i in range(num_lines - 1, -1, -1):
        next_instr[i] = i if isinstance(lines[i], Instruction) else next_instr[i + 1]
    decoded = tuple(
        decode_instruction(line) if isinstance(line, Instruction) else None
        for line in lines
    )
    # One entry, so a concurrent decode never sees half of it.
    order_free = multiset_cache.get("order_free") if multiset_cache is not None else None
    if order_free is None:
        records = [rec for rec in decoded if rec is not None]
        order_free = (compute_timing_slice(records), _register_counts(records))
        if multiset_cache is not None:
            multiset_cache["order_free"] = order_free
    timing_slice, register_counts = order_free
    handlers = tuple(rec.handler if rec is not None else None for rec in decoded)
    timing_handlers = tuple(
        rec.timing_handler if rec is not None and timing_slice.elides(rec) else handler
        for rec, handler in zip(decoded, handlers)
    )
    return DecodedProgram(
        lines=lines,
        num_lines=num_lines,
        label_positions=label_positions,
        next_instr_pc=tuple(next_instr),
        decoded=decoded,
        handlers=handlers,
        timing_handlers=timing_handlers,
        timing_slice=timing_slice,
        register_counts=register_counts,
    )


_CACHE: OrderedDict[str, DecodedProgram] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = DEFAULT_PROGRAM_CACHE_SIZE
_HITS = 0
_MISSES = 0


def decode_program(kernel: SassKernel) -> DecodedProgram:
    """The decoded program of ``kernel``, from cache when possible.

    Lookup is two-level: an identity hit on the kernel object costs one
    attribute read; otherwise the digest-keyed LRU is consulted (two kernel
    objects with the same listing share one program) and the result is pinned
    on the kernel for next time.  Kernel objects are immutable-by-replacement,
    so both levels are sound.
    """
    global _HITS, _MISSES
    # Identity fast path: one attribute read, no lock — this runs once per
    # candidate measurement.  ``hits``/``misses`` count digest-cache traffic.
    cached = kernel.__dict__.get("_decoded_program")
    if cached is not None:
        return cached
    digest = kernel.content_digest()
    with _CACHE_LOCK:
        program = _CACHE.get(digest)
        if program is not None:
            _CACHE.move_to_end(digest)
            _HITS += 1
    if program is None:
        program = build_program_from_lines(kernel.lines, kernel.multiset_cache())
        with _CACHE_LOCK:
            _MISSES += 1
            _CACHE[digest] = program
            _CACHE.move_to_end(digest)
            while len(_CACHE) > _CACHE_MAX:
                _CACHE.popitem(last=False)
    kernel._decoded_program = program
    return program


def decoded_program_cache_info() -> dict:
    """Counters of the digest-keyed program cache (for tests and benchmarks)."""
    with _CACHE_LOCK:
        return {
            "entries": len(_CACHE),
            "max_entries": _CACHE_MAX,
            "hits": _HITS,
            "misses": _MISSES,
        }


def clear_decoded_program_cache(max_entries: int | None = None) -> None:
    """Empty the program cache (and optionally re-bound it)."""
    global _CACHE_MAX, _HITS, _MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        if max_entries is not None:
            _CACHE_MAX = int(max_entries)
