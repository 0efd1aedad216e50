"""GPU simulator substrate: functional SASS execution, SM timing model and profiling.

Replaces the NVIDIA A100 in the paper's loop: kernel runtimes measured here
are the reward signal of the assembly game, and the functional interpreter
backs probabilistic testing (:func:`compare_outputs` holds its tolerance).
"""

from repro.sim.executor import RegisterFile, StepOutcome, WarpExecutor, WarpState, access_bytes
from repro.sim.functional import compare_outputs
from repro.sim.gpu import GPUSimulator, KernelRun, KernelTiming, MeasurementConfig
from repro.sim.launch import GridConfig, LaunchContext, bind_tensors
from repro.sim.measure_service import (
    MeasurementService,
    MeasurementStats,
    SharedMemoTable,
    create_measurement_service,
    listing_memo_scope,
    workload_memo_scope,
)
from repro.sim.memory import (
    GlobalMemory,
    MemoryRequest,
    MemoryTimingModel,
    MemoryTimingStats,
    SharedMemory,
    TensorAllocation,
)
from repro.sim.profiler import ProfileReport, build_profile
from repro.sim.program import (
    DecodedInstr,
    DecodedProgram,
    clear_decoded_program_cache,
    decode_program,
    decoded_program_cache_info,
)
from repro.sim.sm import FunctionalRunner, TimingResult, TimingSimulator

__all__ = [
    "GPUSimulator",
    "KernelRun",
    "KernelTiming",
    "MeasurementConfig",
    "MeasurementService",
    "MeasurementStats",
    "SharedMemoTable",
    "create_measurement_service",
    "listing_memo_scope",
    "workload_memo_scope",
    "GridConfig",
    "LaunchContext",
    "bind_tensors",
    "GlobalMemory",
    "SharedMemory",
    "TensorAllocation",
    "MemoryRequest",
    "MemoryTimingModel",
    "MemoryTimingStats",
    "DecodedInstr",
    "DecodedProgram",
    "decode_program",
    "decoded_program_cache_info",
    "clear_decoded_program_cache",
    "WarpExecutor",
    "WarpState",
    "RegisterFile",
    "StepOutcome",
    "access_bytes",
    "FunctionalRunner",
    "TimingSimulator",
    "TimingResult",
    "ProfileReport",
    "build_profile",
    "compare_outputs",
]
