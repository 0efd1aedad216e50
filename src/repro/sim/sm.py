"""Streaming-multiprocessor model: warp scheduling, scoreboards and timing.

Two drivers share the :class:`repro.sim.executor.WarpExecutor` semantics:

* :class:`FunctionalRunner` executes every warp of a thread block in lockstep
  phases between block barriers.  It is used to produce kernel *outputs*
  (probabilistic testing, examples) and is still timing-aware within a warp,
  so schedules with broken stall counts produce wrong values.
* :class:`TimingSimulator` models one SM executing one thread block: four
  sub-partitions each issue at most one instruction per cycle from an
  eligible warp, variable-latency results are tracked through scoreboard
  barriers, load/store and tensor-core units have limited issue throughput,
  and the operand-reuse cache is invalidated whenever the scheduler switches
  warps.  Its cycle count is the reward signal of the assembly game.

The timing loop is *event-driven*: each warp's next-candidate issue cycle is
cached and recomputed only when one of its inputs changes (an issue in the
warp's partition, a barrier release), instead of re-scanning and re-peeking
every warp per issued instruction.  All static per-instruction facts come
from the :mod:`repro.sim.program` decoded layer.  The loop is bit-identical
to the seed engine preserved in :mod:`repro.sim._reference_sm` — the
equivalence suite holds both to the same :class:`TimingResult` on every
bundled workload.

One issue pays only for what varies.  Both drivers resolve the warp's next
instruction and fold its wait mask into the issue cycle, then hand the
decoded record to :meth:`~repro.sim.executor.WarpExecutor.step`.  A fetch
from an empty operand-reuse cache costs the bank conflicts its record
precomputes for the four banks of every shipped backend.  The dynamic fetch
model (:func:`repro.arch.registers.fetch_stalls`) runs only while the
partition's reuse cache holds registers, for a ``.reuse``-flagged
instruction, or for another bank count; a write invalidates cache entries
only while there are some.

The loop runs the program's *timing view*
(:attr:`~repro.sim.program.DecodedProgram.timing_handlers`).  Much of a full
simulation moves and computes values no cycle count depends on: tile gathers
and scatters, HMMA and float math.  The view keeps exact values only in the
registers of the program's :class:`~repro.sim.program.TimingSlice`, the ones
that can reach an address, a guard predicate or a branch.  Every instruction
writing none of them runs a timing-only handler.  That handler keeps the
latency, completion cycle, scoreboard effects, memory request and every
bounds and view-size check, but moves no bytes and does no arithmetic.  The
registers outside the slice hold stand-ins of the exact shape, so a handler
raises exactly when the full one would.  When a load's destination is in the
slice, memory contents reach the timing, and the whole program keeps its full
handlers.  :class:`FunctionalRunner` always runs the full handlers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.ampere import A100, AmpereConfig
from repro.arch.registers import REGISTER_BANKS, fetch_stalls
from repro.errors import SimulatorError
from repro.sass.kernel import SassKernel
from repro.sim.executor import RegisterFile, WarpExecutor, WarpState
from repro.sim.launch import LaunchContext
from repro.sim.memory import MemoryTimingModel, MemoryTimingStats
from repro.sim.program import DecodedProgram, decode_program

#: Safety valve against runaway schedules (branches that never exit, etc.).
MAX_DYNAMIC_INSTRUCTIONS_PER_WARP = 2_000_000

#: Distinct-issue-cycle tracking: evict cycles below the per-partition floor
#: once the recent set grows past this bound.  Memory stays O(latency spread
#: between partitions) instead of O(dynamic instructions).
_ISSUE_CYCLE_EVICT_THRESHOLD = 4096


# ---------------------------------------------------------------------------
# Functional (lockstep) runner
# ---------------------------------------------------------------------------
class FunctionalRunner:
    """Run one thread block functionally, warp phases separated by barriers."""

    def __init__(self, kernel: SassKernel, launch: LaunchContext):
        self.kernel = kernel
        self.launch = launch
        self.program: DecodedProgram = decode_program(kernel)

    def run_block(self, ctaid: tuple[int, int, int]) -> int:
        """Execute one thread block; returns total dynamic instructions.

        Running off the end of the listing finishes a warp and counts as one
        instruction, like an ``EXIT``.
        """
        program = self.program
        shared = self.launch.new_shared_memory()
        executor = WarpExecutor(
            self.kernel.lines,
            self.launch,
            shared,
            label_positions=program.label_positions,
            program=program,
        )
        warps = [
            WarpState(warp_id=w, ctaid=ctaid, registers=RegisterFile(*program.register_counts))
            for w in range(self.kernel.metadata.num_warps)
        ]
        next_instr_pc = program.next_instr_pc
        decoded = program.decoded
        num_lines = program.num_lines
        total = 0
        # Phase execution: every warp runs until it reaches a block barrier or
        # exits; then the next phase starts.  This matches how cooperative
        # tile loads (LDGSTS ... BAR.SYNC ... LDS) synchronize.
        guard = 0
        while any(not w.finished for w in warps):
            guard += 1
            if guard > 10_000:
                raise SimulatorError("functional runner exceeded the phase limit (missing EXIT?)")
            progressed = False
            for warp in warps:
                if warp.finished:
                    continue
                while True:
                    if warp.issued > MAX_DYNAMIC_INSTRUCTIONS_PER_WARP:
                        raise SimulatorError("warp exceeded the dynamic instruction limit")
                    total += 1
                    progressed = True
                    pc = next_instr_pc[warp.pc]
                    if pc >= num_lines:
                        warp.finished = True
                        break
                    warp.pc = pc
                    rec = decoded[pc]
                    # Wait barriers stall the issue until the scoreboard slots clear.
                    cycle = max(warp.next_issue, warp.barrier_clear_cycle(rec.wait_mask))
                    outcome = executor.step(warp, rec, cycle)
                    if outcome.exited or warp.finished:
                        break
                    if outcome.hit_block_barrier:
                        break
            if not progressed:
                raise SimulatorError("functional runner made no progress (deadlocked barrier?)")
            # Align warps at the barrier.
            sync_point = max(w.next_issue for w in warps)
            for warp in warps:
                if not warp.finished:
                    warp.next_issue = max(warp.next_issue, sync_point)
        return total

    def run_grid(self) -> int:
        """Execute every thread block of the launch grid; returns instruction count."""
        total = 0
        for ctaid in self.launch.grid_config.block_ids():
            total += self.run_block(ctaid)
        return total


# ---------------------------------------------------------------------------
# Timing simulator
# ---------------------------------------------------------------------------
@dataclass
class TimingResult:
    """Result of simulating one thread block on one SM."""

    cycles: int
    instructions_issued: int
    issue_active_cycles: int
    memory_instructions: int
    tensor_instructions: int
    bank_conflict_stalls: int
    predicated_off: int
    memory_stats: MemoryTimingStats
    partitions: int
    warps: int


class TimingSimulator:
    """Cycle-approximate model of one SM executing one thread block.

    Event-driven: candidate issue cycles are cached per warp and invalidated
    only by the events that can change them — an issue in the same partition
    (partition free / LSU / tensor-unit cycles moved), the issuing warp's own
    state (pc, stall, scoreboard), or a block-barrier release.  Scheduling
    decisions are exactly those of the seed per-issue scan: the earliest
    candidate wins, ties go to the lowest warp id.
    """

    def __init__(self, kernel: SassKernel, launch: LaunchContext, config: AmpereConfig = A100):
        self.kernel = kernel
        self.launch = launch
        self.config = config
        self.program: DecodedProgram = decode_program(kernel)

    def run_block(self, ctaid: tuple[int, int, int] = (0, 0, 0)) -> TimingResult:
        config = self.config
        program = self.program
        shared = self.launch.new_shared_memory()
        memory_model = MemoryTimingModel(config)
        executor = WarpExecutor(
            self.kernel.lines,
            self.launch,
            shared,
            label_positions=program.label_positions,
            memory_latency=memory_model.request_latency,
            program=program,
            timing_only=True,
        )
        num_warps = self.kernel.metadata.num_warps
        warps = [
            WarpState(warp_id=w, ctaid=ctaid, registers=RegisterFile(*program.register_counts))
            for w in range(num_warps)
        ]
        partitions = config.partitions_per_sm
        part_of = [w % partitions for w in range(num_warps)]
        partition_warps = [
            [w for w in range(num_warps) if part_of[w] == p] for p in range(partitions)
        ]

        partition_free = [0] * partitions
        partition_mem_ok = [0] * partitions
        partition_tensor_ok = [0] * partitions
        partition_last_warp: list[int | None] = [None] * partitions
        # Operand reuse cache per partition (register indices; see
        # repro.arch.registers).  While it is empty, an issue's bank
        # conflicts are its decoded record's, and no write can clobber it.
        reuse_caches: list[set[int]] = [set() for _ in range(partitions)]
        num_banks = config.register_banks
        reuse_slots = config.reuse_cache_slots
        default_banks = num_banks == REGISTER_BANKS

        # Cached per-warp scheduling state (the event-driven core).
        candidate_cycle = [0] * num_warps
        candidate_valid = [False] * num_warps
        warp_rec = [None] * num_warps
        unfinished = num_warps
        waiting = 0
        part_unfinished = [len(partition_warps[p]) for p in range(partitions)]

        issued = 0
        # Distinct issue cycles are counted incrementally: cycles below every
        # active partition's floor can never repeat, so they are finalized
        # into a counter and evicted from the (bounded) recent set.
        finalized_issue_cycles = 0
        recent_issue_cycles: set[int] = set()
        evicted_below = 0
        memory_instructions = 0
        tensor_instructions = 0
        bank_conflict_stalls = 0
        predicated_off = 0
        last_completion = 0
        guard = 0

        next_instr_pc = program.next_instr_pc
        decoded = program.decoded
        num_lines = program.num_lines
        lsu_issue_interval = config.memory.lsu_issue_interval
        hmma_issue_interval = config.hmma_issue_interval

        while unfinished > 0:
            guard += 1
            if guard > MAX_DYNAMIC_INSTRUCTIONS_PER_WARP:
                raise SimulatorError("timing simulator exceeded the issue limit")

            # Barrier release: if every unfinished warp is parked at the block
            # barrier, release them all at the latest arrival time.
            if waiting == unfinished:
                release = max(w.next_issue for w in warps if not w.finished) + 2
                for w in warps:
                    if not w.finished:
                        w.waiting_at_barrier = False
                        w.next_issue = release
                waiting = 0
                # Barrier invalidates the operand reuse caches.
                for cache in reuse_caches:
                    cache.clear()
                for wid in range(num_warps):
                    candidate_valid[wid] = False

            # Refresh stale candidates and pick the earliest issue cycle.
            # Ascending warp-id order reproduces the seed scan's tie-break.
            best_wid = -1
            best_cycle = 0
            for wid in range(num_warps):
                warp = warps[wid]
                if warp.finished or warp.waiting_at_barrier:
                    continue
                if not candidate_valid[wid]:
                    pc = next_instr_pc[warp.pc]
                    if pc >= num_lines:
                        warp.finished = True
                        unfinished -= 1
                        part_unfinished[part_of[wid]] -= 1
                        continue
                    warp.pc = pc
                    rec = decoded[pc]
                    p = part_of[wid]
                    cand = warp.next_issue
                    free = partition_free[p]
                    if free > cand:
                        cand = free
                    if rec.wait_mask:
                        scoreboard = warp.scoreboard
                        for slot in rec.wait_mask:
                            if scoreboard[slot] > cand:
                                cand = scoreboard[slot]
                    if rec.is_memory:
                        mem_ok = partition_mem_ok[p]
                        if mem_ok > cand:
                            cand = mem_ok
                    if rec.is_tensor:
                        tensor_ok = partition_tensor_ok[p]
                        if tensor_ok > cand:
                            cand = tensor_ok
                    candidate_cycle[wid] = cand
                    warp_rec[wid] = rec
                    candidate_valid[wid] = True
                cycle = candidate_cycle[wid]
                if best_wid < 0 or cycle < best_cycle:
                    best_wid = wid
                    best_cycle = cycle
            if best_wid < 0:
                break

            warp = warps[best_wid]
            rec = warp_rec[best_wid]
            partition = part_of[best_wid]
            cache = reuse_caches[partition]
            # A warp switch on the scheduler invalidates the operand reuse
            # cache (the §5.7.1 hypothesis for why the reordering wins).
            if partition_last_warp[partition] != best_wid:
                cache.clear()
                partition_last_warp[partition] = best_wid

            # Operand fetch: bank conflicts / reuse cache.
            if cache or rec.reuse_reads or not default_banks:
                conflict_stall = fetch_stalls(
                    cache, rec.read_regs, rec.reuse_reads, num_banks, reuse_slots
                )
            else:
                conflict_stall = rec.bank_conflicts
            bank_conflict_stalls += conflict_stall

            # The candidate cycle already covers the wait mask.
            issue_cycle = best_cycle + conflict_stall
            outcome = executor.step(warp, rec, issue_cycle)
            if cache:
                cache.difference_update(rec.written_regs)

            issued += 1
            recent_issue_cycles.add(issue_cycle)
            completion = outcome.completion_cycle
            if completion > last_completion:
                last_completion = completion
            if warp.next_issue > last_completion:
                last_completion = warp.next_issue
            if outcome.predicated_off:
                predicated_off += 1
            if outcome.is_memory:
                memory_instructions += 1
                partition_mem_ok[partition] = issue_cycle + lsu_issue_interval
            if rec.is_tensor:
                tensor_instructions += 1
                partition_tensor_ok[partition] = issue_cycle + hmma_issue_interval
            if outcome.hit_block_barrier:
                warp.waiting_at_barrier = True
                waiting += 1
            partition_free[partition] = issue_cycle + 1
            if warp.finished:
                unfinished -= 1
                part_unfinished[partition] -= 1

            # The issue moved this partition's free/mem/tensor cycles and the
            # issuing warp's own state; only those candidates are stale.
            for wid in partition_warps[partition]:
                candidate_valid[wid] = False

            if len(recent_issue_cycles) > _ISSUE_CYCLE_EVICT_THRESHOLD:
                floors = [
                    partition_free[p] for p in range(partitions) if part_unfinished[p] > 0
                ]
                # Scan only when the watermark advanced since the last sweep,
                # so a frozen floor (one partition parked at a barrier while
                # others issue) cannot degrade into per-issue full scans.
                if floors and min(floors) > evicted_below:
                    evicted_below = min(floors)
                    stale = {c for c in recent_issue_cycles if c < evicted_below}
                    finalized_issue_cycles += len(stale)
                    recent_issue_cycles -= stale

        cycles = max(last_completion, 1)
        return TimingResult(
            cycles=int(cycles),
            instructions_issued=issued,
            issue_active_cycles=finalized_issue_cycles + len(recent_issue_cycles),
            memory_instructions=memory_instructions,
            tensor_instructions=tensor_instructions,
            bank_conflict_stalls=bank_conflict_stalls,
            predicated_off=predicated_off,
            memory_stats=memory_model.stats,
            partitions=partitions,
            warps=num_warps,
        )
