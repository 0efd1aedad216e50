"""Mini-Triton compiler substrate.

A miniature, from-scratch reproduction of the compiler stack CuAsmRL plugs
into: a tile-level kernel IR, a lowering to SASS, a ``ptxas``-like backend
that produces the ``-O3`` schedule (scoreboards, stall counts, reuse flags),
a grid-search autotuner and the library of evaluated LLM kernels.
"""

from repro.triton.autotuner import AutotuneResult, Autotuner
from repro.triton.compiler import CompiledKernel, compile_spec
from repro.triton.ir import TileProgram, Value, ValueKind
from repro.triton.lowering import LoweredKernel, lower_program
from repro.triton.ptx import render_ptx
from repro.triton.ptxas import ControlCodeAssigner, compile_lowered, insert_reuse_flags
from repro.triton.spec import KernelSpec, available_kernels, get_spec, register_spec

# Importing the kernels package registers the evaluated workloads.
from repro.triton import kernels  # noqa: F401  (side-effect import)

__all__ = [
    "TileProgram",
    "Value",
    "ValueKind",
    "LoweredKernel",
    "lower_program",
    "compile_lowered",
    "ControlCodeAssigner",
    "insert_reuse_flags",
    "render_ptx",
    "CompiledKernel",
    "compile_spec",
    "Autotuner",
    "AutotuneResult",
    "KernelSpec",
    "register_spec",
    "get_spec",
    "available_kernels",
]
