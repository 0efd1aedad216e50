"""Ampere (A100) architecture parameters used by the simulator.

The values follow NVIDIA's GA100 whitepaper and the microbenchmarking
literature the paper cites (Jia et al. for Volta/Turing, Abdelkhalik et al.
for Ampere).  The simulator does not need cycle-exact numbers — it needs the
*relationships* that make SASS scheduling matter: global memory is hundreds of
cycles away, shared memory tens, the cp.async (LDGSTS) path bypasses the
register file, load/store units are a scarce resource per SM, and each SM
sub-partition issues at most one instruction per cycle from one warp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.registers import REGISTER_BANKS


@dataclass(frozen=True)
class MemoryTimings:
    """Latency (cycles) and bandwidth-ish limits of the memory hierarchy."""

    #: Shared-memory load-to-use latency.
    shared_latency: int = 24
    #: L1 hit latency for global loads.
    l1_latency: int = 34
    #: L2 hit latency for global loads.
    l2_latency: int = 200
    #: DRAM (HBM) latency for global loads.
    dram_latency: int = 430
    #: Extra latency of the asynchronous copy (LDGSTS) path over a plain LDG.
    async_copy_extra: int = 30
    #: Miss-status-holding registers per SM: outstanding global requests.
    mshr_per_sm: int = 48
    #: Load/store units per SM sub-partition (issue slots for memory ops).
    lsu_per_partition: int = 4
    #: Cycles between back-to-back memory issues on one LSU (throughput limit).
    lsu_issue_interval: int = 2
    #: Bytes moved per global memory transaction.
    transaction_bytes: int = 32
    #: DRAM bandwidth expressed as bytes per SM per cycle (A100: ~1.9 TB/s,
    #: 108 SMs, 1.41 GHz -> ~12.5 B/SM/cycle).
    dram_bytes_per_cycle_per_sm: float = 12.5


@dataclass(frozen=True)
class AmpereConfig:
    """Top-level machine description consumed by :mod:`repro.sim`."""

    name: str = "A100-80GB-PCIe"
    compute_capability: int = 80
    #: Number of streaming multiprocessors.
    num_sms: int = 108
    #: SM sub-partitions (warp schedulers) per SM.
    partitions_per_sm: int = 4
    #: Maximum resident warps per SM.
    max_warps_per_sm: int = 64
    #: 32-bit registers per SM.
    registers_per_sm: int = 65536
    #: Shared memory bytes per SM (configurable carve-out; 164 KB usable).
    shared_memory_per_sm: int = 164 * 1024
    #: SM clock in MHz (only used to convert cycles to milliseconds).
    clock_mhz: float = 1410.0
    #: Threads per warp.
    warp_size: int = 32
    #: Register-file banks per sub-partition (operand collector model).
    register_banks: int = REGISTER_BANKS
    #: Size of the operand reuse cache, in operands, per sub-partition.
    reuse_cache_slots: int = 8
    #: Tensor-core HMMA issue interval in cycles (throughput limit).
    hmma_issue_interval: int = 4
    #: FMA/ALU issue interval (1 = fully pipelined).
    alu_issue_interval: int = 1
    memory: MemoryTimings = field(default_factory=MemoryTimings)

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert an SM-cycle count to milliseconds."""
        return cycles / (self.clock_mhz * 1e3)


#: The default target of the paper's evaluation (§5.1).
A100 = AmpereConfig()
