"""Top-level GPU simulator: kernel launches, CUDA-events-style timing and profiling.

This is the component that replaces the physical A100 in the paper's loop
(Figure 3): the assembly game assembles a mutated schedule, "executes" it
here and receives the measured runtime back as the reward signal.

Two execution modes are provided:

* :meth:`GPUSimulator.run` — functional execution of the *whole grid*,
  producing output tensors (used by probabilistic testing and the examples);
* :meth:`GPUSimulator.measure` — timing simulation of one representative
  thread block scaled by the number of waves, standing in for the paper's
  CUDA-event measurements (§3.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.ampere import A100, AmpereConfig
from repro.errors import LaunchError
from repro.sass.kernel import SassKernel
from repro.sim.launch import GridConfig, LaunchContext, bind_tensors
from repro.sim.memory import GlobalMemory
from repro.sim.profiler import ProfileReport, build_profile
from repro.sim.sm import FunctionalRunner, TimingResult, TimingSimulator


@dataclass(frozen=True)
class KernelTiming:
    """Timing of one kernel launch."""

    kernel_name: str
    block_cycles: int
    waves: int
    total_cycles: int
    time_ms: float
    timing: TimingResult


@dataclass
class KernelRun:
    """Result of a functional grid execution."""

    kernel_name: str
    outputs: dict[str, np.ndarray]
    dynamic_instructions: int


@dataclass
class MeasurementConfig:
    """CUDA-events-like measurement protocol (§3.6 / §5.1).

    The simulator is deterministic, so there are no warm-up launches; the
    timed launches only matter as the noise draws averaged into a timing.
    """

    measure_iterations: int = 100
    #: Relative Gaussian measurement noise; the paper reports run-to-run
    #: standard deviation within 1%, 0 keeps the simulator deterministic.
    noise_std: float = 0.0
    seed: int = 0


class GPUSimulator:
    """A simulated Ampere GPU."""

    def __init__(self, config: AmpereConfig = A100):
        self.config = config

    # ------------------------------------------------------------------
    # Launch helpers
    # ------------------------------------------------------------------
    def _build_launch(
        self,
        kernel: SassKernel,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
    ) -> tuple[LaunchContext, dict]:
        memory = GlobalMemory()
        params, allocations = bind_tensors(memory, tensors, param_order, scalars)
        launch = LaunchContext(
            grid_config=grid,
            params=params,
            global_memory=memory,
            shared_memory_bytes=kernel.metadata.shared_memory_bytes,
        )
        return launch, allocations

    def build_launch(
        self,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
    ) -> LaunchContext:
        """Bind a workload's tensors once into a reusable launch context.

        The returned launch snapshots its global memory so
        :meth:`measure_with_launch` can measure any number of candidate
        schedules against it — timing simulation resets the simulated device
        *state* (dirtied tensors) between candidates instead of re-uploading
        every input tensor per measurement.
        """
        memory = GlobalMemory()
        params, _ = bind_tensors(memory, tensors, param_order, scalars)
        launch = LaunchContext(
            grid_config=grid,
            params=params,
            global_memory=memory,
            shared_memory_bytes=0,
        )
        memory.snapshot()
        return launch

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run(
        self,
        kernel: SassKernel,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
        output_names: list[str] | None = None,
    ) -> KernelRun:
        """Execute the whole grid functionally and return the output tensors."""
        launch, allocations = self._build_launch(kernel, grid, tensors, param_order, scalars)
        runner = FunctionalRunner(kernel, launch)
        dynamic = runner.run_grid()
        output_names = output_names or list(tensors.keys())
        outputs = {}
        for name in output_names:
            if name not in allocations:
                raise LaunchError(f"unknown output tensor {name!r}")
            outputs[name] = launch.global_memory.download(allocations[name])
        return KernelRun(kernel_name=kernel.metadata.name, outputs=outputs, dynamic_instructions=dynamic)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def occupancy_waves(self, kernel: SassKernel, grid: GridConfig) -> int:
        """Number of waves needed to run the grid across all SMs."""
        return max(1, math.ceil(grid.num_blocks / self.config.num_sms))

    def time_block(
        self,
        kernel: SassKernel,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
    ) -> TimingResult:
        """Timing-simulate one representative thread block."""
        launch, _ = self._build_launch(kernel, grid, tensors, param_order, scalars)
        simulator = TimingSimulator(kernel, launch, self.config)
        return simulator.run_block((0, 0, 0))

    def measure(
        self,
        kernel: SassKernel,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
        measurement: MeasurementConfig | None = None,
    ) -> KernelTiming:
        """Measure kernel runtime with the CUDA-events protocol.

        The simulator is deterministic, so the warm-up/repeat loop of the
        paper collapses to a single cycle-accurate measurement plus optional
        synthetic measurement noise.

        The noise stream is derived from ``(measurement.seed, schedule)``:
        distinct schedules see independent noise realizations (so ``noise_std``
        actually perturbs candidate rankings), while re-measuring the same
        schedule under the same seed reproduces the same value.
        """
        launch = self.build_launch(grid, tensors, param_order, scalars)
        return self.measure_with_launch(kernel, launch, measurement=measurement)

    def time_block_with_launch(
        self,
        kernel: SassKernel,
        launch: LaunchContext,
        ctaid: tuple[int, int, int] = (0, 0, 0),
    ) -> TimingResult:
        """Timing-simulate one block against a reusable (pre-bound) launch.

        The launch's global memory is restored to its snapshot first, so the
        result is bit-identical to timing the kernel on a freshly bound
        launch regardless of what earlier measurements stored.
        """
        launch.global_memory.restore()
        launch.shared_memory_bytes = kernel.metadata.shared_memory_bytes
        simulator = TimingSimulator(kernel, launch, self.config)
        return simulator.run_block(ctaid)

    def measure_with_launch(
        self,
        kernel: SassKernel,
        launch: LaunchContext,
        measurement: MeasurementConfig | None = None,
    ) -> KernelTiming:
        """Measure a candidate schedule against a reusable launch context.

        This is the hot path of the assembly game: one
        :meth:`build_launch` per workload, one call here per candidate.
        """
        measurement = measurement or MeasurementConfig()
        timing = self.time_block_with_launch(kernel, launch)
        waves = self.occupancy_waves(kernel, launch.grid_config)
        total_cycles = timing.cycles * waves
        time_ms = self.config.cycles_to_ms(total_cycles)
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

    def profile(
        self,
        kernel: SassKernel,
        grid: GridConfig,
        tensors: dict[str, np.ndarray],
        param_order: list[str],
        scalars: dict[str, int] | None = None,
    ) -> ProfileReport:
        """Nsight-Compute-like profile of the kernel (Table 3 / Figures 10-11)."""
        timing = self.time_block(kernel, grid, tensors, param_order, scalars)
        return build_profile(kernel.metadata.name, timing, config=self.config)
