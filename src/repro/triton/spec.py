"""Kernel specifications: workload definitions the compiler and harness share.

A :class:`KernelSpec` bundles everything needed to compile, launch, verify and
benchmark one of the evaluated workloads (Table 2 of the paper): the tile
program builder, the launch grid, input generation, a numpy reference oracle,
the autotuning configuration space and the paper / reduced shape sets.

Specs live in :data:`KERNELS`, a :class:`repro.utils.registry.Registry`:
canonical names, case-insensitive aliases, tag-filtered enumeration.  The
scenario layer (:mod:`repro.scenarios`) composes this registry with backends
and measurement regimes, so registering a spec here is the *only* step
needed to pull a new workload into the whole test/bench/serve matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.launch import GridConfig
from repro.triton.ir import TileProgram
from repro.utils.registry import Registry

#: The shape-set names :meth:`KernelSpec.shapes` accepts, smallest first.
SCALES = ("test", "bench", "paper")


@dataclass(frozen=True)
class KernelSpec:
    """One evaluated workload."""

    name: str
    #: ``build(shapes, config) -> TileProgram``
    build: Callable[[dict, dict], TileProgram]
    #: ``grid(shapes, config) -> GridConfig``
    grid: Callable[[dict, dict], GridConfig]
    #: ``make_inputs(rng, shapes) -> {param_name: np.ndarray}`` (outputs zeroed)
    make_inputs: Callable[[np.random.Generator, dict], dict]
    #: ``reference(inputs, shapes) -> {output_name: np.ndarray}``
    reference: Callable[[dict, dict], dict]
    #: Names of the output tensors (subset of the parameters).
    output_names: tuple[str, ...]
    #: Default kernel configuration (tile sizes, warps).
    default_config: dict
    #: Autotuner search space: list of configurations to sweep.
    config_space: tuple[dict, ...]
    #: Paper-scale shapes (Table 2).
    paper_shapes: dict
    #: Reduced shapes for the benchmark harness (documented in EXPERIMENTS.md).
    bench_shapes: dict
    #: Small shapes for unit tests / probabilistic testing.
    test_shapes: dict
    #: Whether the workload is compute-bound (Figure 6 grouping).
    compute_bound: bool = True
    description: str = ""
    #: Alternative lookup names (case-insensitive, like backend aliases).
    aliases: tuple[str, ...] = ()
    #: Free-form grouping labels (``"table2"``, ``"llm"``, ...) consumed by
    #: :func:`available_kernels` and the scenario registry.
    tags: tuple[str, ...] = ()

    def shapes(self, scale: str = "bench") -> dict:
        """Shape set by scale name: ``paper``, ``bench`` or ``test``."""
        return {"paper": self.paper_shapes, "bench": self.bench_shapes, "test": self.test_shapes}[scale]


KERNELS: Registry[KernelSpec] = Registry("kernel")


def register_spec(spec: KernelSpec) -> KernelSpec:
    """Register a spec so the harness can enumerate all evaluated kernels."""
    return KERNELS.add(spec.name, spec, aliases=spec.aliases)


get_spec = KERNELS.get
available_kernels = KERNELS.names
