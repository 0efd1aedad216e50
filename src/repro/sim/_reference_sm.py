"""The seed (pre-decoded-program) engines, kept verbatim as the golden models.

When the event-driven issue loop replaced the per-issue warp scan in
:mod:`repro.sim.sm`, the contract was *bit-identical timing*: every memo
digest, cached baseline and benchmark number produced before the swap must
stay valid.  This module preserves the original timing engine — the
O(num_warps) scheduler scan with per-issue label peeking, per-issue def/use
frozenset rebuilds and a fresh launch per measurement — so the equivalence
suite (``tests/test_timing_equivalence.py``) and the throughput benchmark
(``benchmarks/run_timing_bench.py``) can always compare the production engine
against the exact seed semantics on the current host.

:class:`ReferenceFunctionalRunner` is the seed's functional runner driving
the frozen :class:`~repro.sim._reference_executor.ReferenceWarpExecutor`.
It is the oracle for :meth:`repro.sim.gpu.GPUSimulator.run`: the
differential fuzz suite (``tests/test_functional_oracle.py``) holds every
output byte and dynamic instruction count of the production runner to it,
and the benchmark reports the production runner's speedup over it.

Only the engines are frozen.  Both oracles use the production
:mod:`repro.sim.memory` (``GlobalMemory``/``SharedMemory`` byte reads and
writes, ``dtype_at``) and launch binding (``LaunchContext``,
``bind_tensors``), so a regression there shows on both sides and no
comparison against this module can catch it.  A change to those modules
needs a digest of timings and run outputs against the previous tree.

Nothing outside tests and benchmarks should import this module.
"""

from __future__ import annotations

import numpy as np

from repro.arch.ampere import A100, AmpereConfig
from repro.arch.registers import RegisterBankModel
from repro.errors import SimulatorError
from repro.sass.instruction import Instruction, Label
from repro.sass.kernel import SassKernel
from repro.sass.operands import RegisterOperand
from repro.sim._reference_executor import (
    ReferenceWarpExecutor,
    StepOutcome,
    WarpState,
    _base_opcode,
    _opcode_info,
    _read_registers,
    _written_registers,
)
from repro.sim.launch import GridConfig, LaunchContext, bind_tensors
from repro.sim.memory import GlobalMemory, MemoryTimingModel
from repro.sim.sm import MAX_DYNAMIC_INSTRUCTIONS_PER_WARP, TimingResult


def _label_positions(kernel: SassKernel) -> dict[str, int]:
    return {line.name: i for i, line in enumerate(kernel.lines) if isinstance(line, Label)}


class ReferenceFunctionalRunner:
    """Run one thread block functionally, warp phases separated by barriers (seed implementation)."""

    def __init__(self, kernel: SassKernel, launch: LaunchContext):
        self.kernel = kernel
        self.launch = launch

    def run_block(self, ctaid: tuple[int, int, int]) -> int:
        """Execute one thread block; returns total dynamic instructions."""
        shared = self.launch.new_shared_memory()
        executor = ReferenceWarpExecutor(
            self.kernel.lines,
            self.launch,
            shared,
            label_positions=_label_positions(self.kernel),
        )
        warps = [
            WarpState(warp_id=w, ctaid=ctaid)
            for w in range(self.kernel.metadata.num_warps)
        ]
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
                    outcome = executor.step(warp, warp.next_issue)
                    total += 1
                    progressed = True
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


def _seed_operand_fetch_stalls(model: RegisterBankModel, read_registers, reuse_registers) -> int:
    """Frozen copy of the seed ``RegisterBankModel.operand_fetch_stalls``.

    Kept here (like the uncached executor replicas) so the golden model does
    not move when the production bank model is refactored.
    """
    reads = list(dict.fromkeys(read_registers))  # stable unique
    reuse = set(reuse_registers)

    # Operands already latched in the reuse cache skip the register file.
    fetched = [r for r in reads if r not in model._reuse_cache]

    # Count same-cycle bank conflicts among the remaining fetches.
    bank_counts: dict[int, int] = {}
    for reg in fetched:
        bank = reg % model.num_banks
        bank_counts[bank] = bank_counts.get(bank, 0) + 1
    conflicts = sum(count - 1 for count in bank_counts.values() if count > 1)

    # Install newly flagged operands, evicting oldest-first when full.
    for reg in reads:
        if reg in reuse:
            if len(model._reuse_cache) >= model.reuse_slots and reg not in model._reuse_cache:
                # Evict an arbitrary (but deterministic) entry.
                model._reuse_cache.discard(min(model._reuse_cache))
            model._reuse_cache.add(reg)
    return conflicts


class ReferenceTimingSimulator:
    """Cycle-approximate model of one SM (seed implementation, golden model)."""

    def __init__(self, kernel: SassKernel, launch: LaunchContext, config: AmpereConfig = A100):
        self.kernel = kernel
        self.launch = launch
        self.config = config

    def run_block(self, ctaid: tuple[int, int, int] = (0, 0, 0)) -> TimingResult:
        config = self.config
        shared = self.launch.new_shared_memory()
        memory_model = MemoryTimingModel(config)
        executor = ReferenceWarpExecutor(
            self.kernel.lines,
            self.launch,
            shared,
            label_positions=_label_positions(self.kernel),
            memory_latency=memory_model.request_latency,
        )
        num_warps = self.kernel.metadata.num_warps
        warps = [WarpState(warp_id=w, ctaid=ctaid) for w in range(num_warps)]
        partitions = config.partitions_per_sm
        partition_of = {w.warp_id: w.warp_id % partitions for w in warps}

        partition_free = [0] * partitions
        partition_mem_ok = [0] * partitions
        partition_tensor_ok = [0] * partitions
        partition_last_warp: list[int | None] = [None] * partitions
        bank_models = [
            RegisterBankModel(num_banks=config.register_banks, reuse_slots=config.reuse_cache_slots)
            for _ in range(partitions)
        ]

        issued = 0
        issue_cycles: set[int] = set()
        memory_instructions = 0
        tensor_instructions = 0
        bank_conflict_stalls = 0
        predicated_off = 0
        last_completion = 0
        guard = 0

        while any(not w.finished for w in warps):
            guard += 1
            if guard > MAX_DYNAMIC_INSTRUCTIONS_PER_WARP:
                raise SimulatorError("timing simulator exceeded the issue limit")

            # Barrier release: if every unfinished warp is parked at the block
            # barrier, release them all at the latest arrival time.
            active = [w for w in warps if not w.finished]
            if active and all(w.waiting_at_barrier for w in active):
                release = max(w.next_issue for w in active) + 2
                for w in active:
                    w.waiting_at_barrier = False
                    w.next_issue = release
                # Barrier invalidates the operand reuse caches.
                for model in bank_models:
                    model.invalidate()

            # Pick the (warp) with the earliest possible issue cycle.
            best_warp: WarpState | None = None
            best_cycle = None
            best_instr: Instruction | None = None
            for warp in warps:
                if warp.finished or warp.waiting_at_barrier:
                    continue
                instr = self._peek(warp)
                if instr is None:
                    warp.finished = True
                    continue
                partition = partition_of[warp.warp_id]
                candidate = max(warp.next_issue, partition_free[partition])
                if instr.control.wait_mask:
                    candidate = max(candidate, warp.barrier_clear_cycle(instr.control.wait_mask))
                if _opcode_info(instr).is_memory:
                    candidate = max(candidate, partition_mem_ok[partition])
                if _base_opcode(instr) in {"HMMA", "IMMA"}:
                    candidate = max(candidate, partition_tensor_ok[partition])
                if best_cycle is None or candidate < best_cycle or (
                    candidate == best_cycle and best_warp is not None and warp.warp_id < best_warp.warp_id
                ):
                    best_cycle = candidate
                    best_warp = warp
                    best_instr = instr
            if best_warp is None:
                break

            partition = partition_of[best_warp.warp_id]
            bank_model = bank_models[partition]
            # A warp switch on the scheduler invalidates the operand reuse
            # cache (the §5.7.1 hypothesis for why the reordering wins).
            if partition_last_warp[partition] != best_warp.warp_id:
                bank_model.invalidate()
                partition_last_warp[partition] = best_warp.warp_id

            # Operand fetch: bank conflicts / reuse cache.
            read_regs = sorted(_read_registers(best_instr))
            reuse_regs = sorted(
                op.index
                for op in best_instr.operands
                if isinstance(op, RegisterOperand) and op.reuse and not op.is_rz
            )
            conflict_stall = _seed_operand_fetch_stalls(bank_model, read_regs, reuse_regs)
            bank_conflict_stalls += conflict_stall
            issue_at = best_cycle + conflict_stall

            outcome: StepOutcome = executor.step(best_warp, issue_at)
            bank_model.notify_write(_written_registers(best_instr))

            issued += 1
            issue_cycles.add(outcome.issue_cycle)
            last_completion = max(last_completion, outcome.completion_cycle, best_warp.next_issue)
            if outcome.predicated_off:
                predicated_off += 1
            if outcome.is_memory:
                memory_instructions += 1
                partition_mem_ok[partition] = outcome.issue_cycle + config.memory.lsu_issue_interval
            if _base_opcode(best_instr) in {"HMMA", "IMMA"}:
                tensor_instructions += 1
                partition_tensor_ok[partition] = outcome.issue_cycle + config.hmma_issue_interval
            if outcome.hit_block_barrier:
                best_warp.waiting_at_barrier = True
            partition_free[partition] = outcome.issue_cycle + 1

        cycles = max(last_completion, 1)
        return TimingResult(
            cycles=int(cycles),
            instructions_issued=issued,
            issue_active_cycles=len(issue_cycles),
            memory_instructions=memory_instructions,
            tensor_instructions=tensor_instructions,
            bank_conflict_stalls=bank_conflict_stalls,
            predicated_off=predicated_off,
            memory_stats=memory_model.stats,
            partitions=partitions,
            warps=num_warps,
        )

    def _peek(self, warp: WarpState) -> Instruction | None:
        lines = self.kernel.lines
        pc = warp.pc
        while pc < len(lines) and isinstance(lines[pc], Label):
            pc += 1
        if pc >= len(lines):
            return None
        warp.pc = pc
        line = lines[pc]
        return line if isinstance(line, Instruction) else None


def reference_run(kernel: SassKernel, grid: GridConfig, tensors: dict, param_order: list[str]):
    """Seed functional path: :meth:`repro.sim.gpu.GPUSimulator.run` (every
    tensor an output) driving :class:`ReferenceFunctionalRunner` on a
    freshly bound launch."""
    from repro.sim.gpu import KernelRun

    memory = GlobalMemory()
    params, allocations = bind_tensors(memory, tensors, param_order)
    launch = LaunchContext(
        grid_config=grid,
        params=params,
        global_memory=memory,
        shared_memory_bytes=kernel.metadata.shared_memory_bytes,
    )
    dynamic = ReferenceFunctionalRunner(kernel, launch).run_grid()
    outputs = {name: memory.download(allocations[name]) for name in tensors}
    return KernelRun(kernel_name=kernel.metadata.name, outputs=outputs, dynamic_instructions=dynamic)


def reference_measure(
    simulator,
    kernel: SassKernel,
    grid: GridConfig,
    tensors: dict,
    param_order: list[str],
    scalars: dict | None = None,
    measurement=None,
):
    """Seed measurement path: fresh launch + reference engine per candidate.

    Mirrors :meth:`repro.sim.gpu.GPUSimulator.measure` exactly as it behaved
    before the decoded-program PR: tensors are re-bound and re-uploaded for
    every candidate and the block is timed by the seed scheduler loop.
    """
    from repro.sim.gpu import KernelTiming, MeasurementConfig

    measurement = measurement or MeasurementConfig()
    memory = GlobalMemory()
    params, _ = bind_tensors(memory, tensors, param_order, scalars)
    launch = LaunchContext(
        grid_config=grid,
        params=params,
        global_memory=memory,
        shared_memory_bytes=kernel.metadata.shared_memory_bytes,
    )
    timing = ReferenceTimingSimulator(kernel, launch, simulator.config).run_block((0, 0, 0))
    waves = simulator.occupancy_waves(kernel, grid)
    total_cycles = timing.cycles * waves
    time_ms = simulator.config.cycles_to_ms(total_cycles)
    if measurement.noise_std > 0:
        schedule_stream = int(kernel.content_digest()[:16], 16)
        rng = np.random.default_rng([int(measurement.seed), schedule_stream])
        samples = time_ms * (
            1.0 + measurement.noise_std * rng.standard_normal(measurement.measure_iterations)
        )
        time_ms = float(np.mean(np.maximum(samples, 0.0)))
    return KernelTiming(
        kernel_name=kernel.metadata.name,
        block_cycles=timing.cycles,
        waves=waves,
        total_cycles=total_cycles,
        time_ms=time_ms,
        timing=timing,
    )
