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
from repro.analysis import ScheduleVerifier, build_cfg, run_pre_game_analysis
from repro.core.actions import ActionSpace
from repro.core.masking import ActionMasker
from repro.sass import Instruction, SassKernel
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
        verifier = ScheduleVerifier(kernel)
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


@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=10, deadline=None)
@given(
    choices=st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=6),
    reparse=st.booleans(),
)
def test_mapped_candidates_keep_the_seed_cfg(workload, choices, reparse):
    """A candidate that maps onto the seed has the seed's blocks and successors.

    ``ScheduleVerifier.verify`` hands its own CFG to the scoreboard check on
    that ground, so it must hold for any adjacent swaps, masked or not, and
    for re-parsed listings that map by text instead of identity.
    """
    kernel, _, _, verifier = _walk_state(workload)
    current = kernel
    for choice in choices:
        index = choice % (len(kernel.lines) - 1)
        pair = current.lines[index : index + 2]
        if all(isinstance(line, Instruction) for line in pair):
            current = current.swap(index, index + 1)
    if reparse:
        current = SassKernel.from_text(current.render(), kernel.metadata)
    if verifier._map_candidate(current, []) is not None:
        assert build_cfg(current) == verifier.cfg
