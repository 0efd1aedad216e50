"""Kernel-configuration autotuner (§3.1 of the paper).

CuAsmRL performs a *hierarchical* search: first a grid-search autotuner
enumerates the user-provided kernel configurations (tile sizes, warps),
measures each on the GPU and greedily picks the fastest; the RL assembly game
then optimizes the SASS schedule compiled with that winning configuration.
The autotuner caches its decision so repeated invocations are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AutotuneError, CompilerError
from repro.sim.gpu import GPUSimulator, MeasurementConfig
from repro.triton.compiler import CompiledKernel, compile_spec
from repro.triton.spec import KernelSpec
from repro.utils.logging import get_logger
from repro.utils.serialization import to_json_str

_LOG = get_logger("triton.autotuner")


@dataclass
class AutotuneResult:
    """Outcome of one autotuning sweep."""

    spec_name: str
    shapes: dict
    best_config: dict
    best_time_ms: float
    #: (config, time_ms) for every configuration that compiled and ran.
    trials: list[tuple[dict, float]] = field(default_factory=list)
    #: Configurations rejected at compile time (shape/tile mismatch).
    rejected: list[dict] = field(default_factory=list)


class Autotuner:
    """Grid-search autotuner with a per-(kernel, shapes) cache."""

    def __init__(
        self,
        simulator: GPUSimulator | None = None,
        *,
        measurement: MeasurementConfig | None = None,
        measure_iterations: int = 100,
    ):
        self.simulator = simulator or GPUSimulator()
        self.measurement = measurement or MeasurementConfig(measure_iterations=measure_iterations)
        self._cache: dict[str, AutotuneResult] = {}

    def _key(self, spec: KernelSpec, shapes: dict) -> str:
        return f"{spec.name}:{to_json_str(shapes)}"

    def clear(self) -> None:
        """Drop the autotune-decision cache (and the kernels it retains)."""
        self._cache.clear()

    def tune(
        self,
        spec: KernelSpec,
        *,
        shapes: dict | None = None,
        scale: str = "bench",
        checkpoint=None,
    ) -> AutotuneResult:
        """Sweep the spec's configuration space and return the best config.

        ``checkpoint`` (a zero-argument callable) is polled before each
        candidate configuration is measured; raising from it — typically
        :class:`repro.errors.JobCancelled` — aborts the sweep, making stage-1
        autotuning cooperatively cancellable like the stage-2 search.
        """
        shapes = dict(shapes) if shapes is not None else dict(spec.shapes(scale))
        key = self._key(spec, shapes)
        if key in self._cache:
            return self._cache[key]

        trials: list[tuple[dict, float]] = []
        rejected: list[dict] = []
        for config in spec.config_space:
            if checkpoint is not None:
                checkpoint()
            try:
                compiled = compile_spec(spec, shapes=shapes, config=config)
            except CompilerError as exc:
                _LOG.debug("config %s rejected: %s", config, exc)
                rejected.append(dict(config))
                continue
            timing = compiled.measure(self.simulator, measurement=self.measurement)
            trials.append((dict(config), timing.time_ms))
            _LOG.debug("config %s -> %.4f ms", config, timing.time_ms)
        if not trials:
            raise AutotuneError(f"no valid configuration for {spec.name} at shapes {shapes}")
        best_config, best_time = min(trials, key=lambda item: item[1])
        result = AutotuneResult(
            spec_name=spec.name,
            shapes=shapes,
            best_config=best_config,
            best_time_ms=best_time,
            trials=trials,
            rejected=rejected,
        )
        self._cache[key] = result
        return result

    def compile_best(
        self,
        spec: KernelSpec,
        *,
        shapes: dict | None = None,
        scale: str = "bench",
        checkpoint=None,
    ) -> CompiledKernel:
        """Autotune and return the kernel compiled with the winning config."""
        result = self.tune(spec, shapes=shapes, scale=scale, checkpoint=checkpoint)
        return compile_spec(spec, shapes=result.shapes, config=result.best_config)
