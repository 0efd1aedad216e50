"""Output comparison for probabilistic testing (§4.1 of the paper).

``@cuasmrl.jit(ret_ptr=...)`` marks which kernel argument is the output
buffer.  Probabilistic testing runs a candidate SASS schedule on randomized
inputs and compares its outputs to a trusted numpy oracle.  Formal
verification is impossible for SASS (no official semantics) and exhaustive
testing is intractable, so this sanity check plus the manual move inspection
of §5.7 is what the paper relies on.  :func:`compare_outputs` holds the
fp16-friendly tolerance; :class:`repro.analysis.funcdiff.OutputCheck` runs
the trials, and adds a bit-exact comparison against the seed schedule.
"""

from __future__ import annotations

import numpy as np


def compare_outputs(
    candidate: np.ndarray,
    reference: np.ndarray,
    *,
    rtol: float = 2e-2,
    atol: float = 2e-2,
) -> tuple[bool, float, float]:
    """Compare two output tensors with fp16-friendly tolerances."""
    cand = np.asarray(candidate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if cand.shape != ref.shape:
        return False, float("inf"), float("inf")
    abs_err = np.abs(cand - ref)
    denom = np.maximum(np.abs(ref), 1.0)
    rel_err = abs_err / denom
    passed = bool(np.all((abs_err <= atol) | (rel_err <= rtol)))
    return passed, float(abs_err.max(initial=0.0)), float(abs_err.mean()) if abs_err.size else 0.0
