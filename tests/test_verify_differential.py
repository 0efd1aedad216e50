"""Differential property tests: the action mask and the verifier must agree.

The masking machinery (§3.5, Algorithm 1) legalizes moves *incrementally*;
the verifier re-derives legality for a *whole* schedule from the seed's
dependence graph.  They are independent implementations of the same
contract, so every walk of mask-permitted swaps must verify with zero
errors — on every bundled workload.  Hypothesis drives the walks with
random action choices so each run explores different interleavings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.analysis import ScheduleVerifier, run_pre_game_analysis
from repro.core.actions import ActionSpace
from repro.core.masking import ActionMasker
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

WORKLOADS = available_kernels()

_STATE = {}


def _walk_state(workload: str):
    """Per-workload analysis + verifier, built once (all are immutable)."""
    if workload not in _STATE:
        kernel = compile_spec(get_spec(workload), scale="test").kernel
        analysis = run_pre_game_analysis(kernel)
        space = ActionSpace(kernel, analysis.candidate_indices)
        masker = ActionMasker(space, analysis.stalls)
        verifier = ScheduleVerifier(
            kernel, cfg=analysis.cfg, stalls=analysis.stalls
        )
        _STATE[workload] = (kernel, space, masker, verifier)
    return _STATE[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=8, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=12))
def test_masked_walks_verify_clean(workload, choices):
    """Every schedule reachable through the mask is verifier-clean."""
    kernel, space, masker, verifier = _walk_state(workload)
    current = kernel
    for choice in choices:
        mask = masker.mask(current)
        valid = np.flatnonzero(mask)
        if len(valid) == 0:
            break
        action = int(valid[choice % len(valid)])
        current = current.swap(*space.target_indices(current, action))
        # Fast path and full audit must agree — and both must accept.
        assert verifier.is_legal(current), (
            f"mask-permitted walk on {workload} produced a schedule the "
            f"verifier rejects (action {action})"
        )
        result = verifier.verify(current, include_warnings=False)
        assert result.ok, result.render(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=6, deadline=None)
@given(choice=st.integers(min_value=0, max_value=2**31 - 1))
def test_single_masked_move_matches_is_legal(workload, choice):
    """For single moves, ``is_legal`` equals "``verify`` finds no errors"."""
    kernel, space, masker, verifier = _walk_state(workload)
    mask = masker.mask(kernel)
    valid = np.flatnonzero(mask)
    if len(valid) == 0:
        return
    action = int(valid[choice % len(valid)])
    candidate = kernel.swap(*space.target_indices(kernel, action))
    fast = verifier.is_legal(candidate)
    full = verifier.verify(candidate, include_warnings=False).ok
    assert fast == full == True  # noqa: E712 - the three-way equality is the point


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reachable_reversal_round_trips(workload):
    """Applying a masked move and its inverse returns to a clean seed map."""
    kernel, space, masker, verifier = _walk_state(workload)
    mask = masker.mask(kernel)
    valid = np.flatnonzero(mask)
    if len(valid) == 0:
        pytest.skip("no mask-permitted move at this scale")
    action = int(valid[0])
    source, destination = space.target_indices(kernel, action)
    restored = kernel.swap(source, destination).swap(destination, source)
    result = verifier.verify(restored)
    assert result.ok and not result.diagnostics
