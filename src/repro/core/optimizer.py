"""The deployable artifact of the hierarchical search (§3.1, Figure 2).

:class:`OptimizedKernel` bundles what one optimization run produces: the
``-O3`` compiled kernel, the same kernel with the best schedule found, that
schedule spliced back into the cubin, and the run's
:class:`~repro.core.trainer.OptimizationResult`.  ``repro.api.Session.optimize``
builds it and writes it to the deploy cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trainer import OptimizationResult
from repro.sass.cubin import Cubin
from repro.triton.compiler import CompiledKernel


@dataclass
class OptimizedKernel:
    """The deployable artifact: optimized SASS spliced into the original cubin."""

    compiled: CompiledKernel
    optimized: CompiledKernel
    cubin: Cubin
    result: OptimizationResult

    @property
    def speedup(self) -> float:
        return self.result.speedup
