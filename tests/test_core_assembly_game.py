"""Tests for the CuAsmRL core: embedding, action space, masking and the assembly game."""

import numpy as np
import pytest

from repro.core import (
    ActionSpace,
    AssemblyGame,
    CuAsmRLTrainer,
    Direction,
    StateEmbedder,
)
from repro.rl import PPOConfig
from repro.sim import GPUSimulator, compare_outputs
from repro.triton import compile_spec, get_spec


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture(scope="module")
def compiled():
    return compile_spec(get_spec("mmLeakyReLu"), scale="test")


@pytest.fixture(scope="module")
def game(compiled, simulator):
    return AssemblyGame(compiled, simulator, episode_length=8)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------
def test_embedding_shape_and_values(compiled):
    embedder = StateEmbedder(compiled.kernel)
    matrix = embedder.embed(compiled.kernel)
    assert matrix.shape == embedder.shape
    assert matrix.shape[0] == len(compiled.kernel.instructions)
    # Stall counts are normalized to [0, 1]; absent fields are -1.
    assert matrix.min() >= -1.0
    assert np.isfinite(matrix).all()


def test_embedding_changes_when_schedule_changes(game, compiled):
    obs0, _ = game.reset()
    mask = game.action_masks()
    action = int(np.flatnonzero(mask)[0])
    obs1, *_ = game.step(action)
    assert obs0.shape == obs1.shape
    assert not np.array_equal(obs0, obs1)
    game.reset()


# ---------------------------------------------------------------------------
# Action space and masking
# ---------------------------------------------------------------------------
def test_action_space_decoding(game, compiled):
    space = game.action_space_map
    assert space.n == 2 * space.num_candidates
    decoded = space.decode(3)
    assert decoded.candidate == 1 and decoded.direction is Direction.DOWN
    with pytest.raises(Exception):
        space.decode(space.n)
    positions = space.candidate_positions(compiled.kernel)
    assert len(positions) == space.num_candidates
    assert all(compiled.kernel.lines[i].is_actionable_memory for i in positions)


def test_mask_only_allows_memory_swaps_inside_blocks(game, compiled):
    mask = game.masker.mask(compiled.kernel)
    assert mask.any(), "the -O3 schedule must have at least one legal move"
    blocks = compiled.kernel.basic_blocks()
    for action in np.flatnonzero(mask):
        source, destination = game.action_space_map.target_indices(compiled.kernel, int(action))
        moving = compiled.kernel.lines[source]
        other = compiled.kernel.lines[destination]
        assert moving.is_actionable_memory
        assert not other.is_sync
        assert any(start <= source < end and start <= destination < end for start, end in blocks)


def test_every_unmasked_action_preserves_functional_correctness(game, compiled, simulator):
    """The core safety property (§3.5): any action the masker allows must not
    change the kernel's results."""
    inputs = compiled.make_inputs(3)
    expected = compiled.reference(inputs)
    mask = game.masker.mask(compiled.kernel)
    actions = list(np.flatnonzero(mask))[:6]  # bound runtime
    for action in actions:
        source, destination = game.action_space_map.target_indices(compiled.kernel, int(action))
        mutated = compiled.kernel.swap(source, destination)
        run = simulator.run(
            mutated, compiled.grid, inputs, compiled.param_order, output_names=["out"]
        )
        ok, max_err, _ = compare_outputs(run.outputs["out"], expected["out"])
        assert ok, f"action {action} broke the kernel (max err {max_err})"


def test_register_conflicts_are_masked(game, compiled):
    """Swapping a memory instruction above the producer of its address must be masked."""
    kernel = compiled.kernel
    mask = game.masker.mask(kernel)
    for action in range(game.action_space_map.n):
        if mask[action]:
            continue
        # Masked actions either fall outside a block or would reorder a
        # dependent pair; verify one representative dependent case exists.
    positions = game.action_space_map.candidate_positions(kernel)
    found_dependent_mask = False
    for candidate, position in enumerate(positions):
        above = kernel.lines[position - 1]
        moving = kernel.lines[position]
        if not hasattr(above, "written_registers"):
            continue
        if above.written_registers() & moving.read_registers():
            assert not mask[candidate * 2 + int(Direction.UP)]
            found_dependent_mask = True
    assert found_dependent_mask, "test kernel should contain at least one dependent pair"


# ---------------------------------------------------------------------------
# The environment itself
# ---------------------------------------------------------------------------
def test_env_reward_follows_equation_3(game):
    game.reset()
    baseline = game.baseline_time_ms
    mask = game.action_masks()
    action = int(np.flatnonzero(mask)[0])
    _, reward, _, _, info = game.step(action)
    expected = (baseline - info["time_ms"]) / baseline * 100.0
    assert reward == pytest.approx(expected, rel=1e-9)
    game.reset()


def test_env_episode_truncates_at_length(game):
    game.reset()
    steps = 0
    truncated = False
    while not truncated and steps < 20:
        mask = game.action_masks()
        valid = np.flatnonzero(mask)
        if len(valid) == 0:
            break
        _, _, terminated, truncated, _ = game.step(int(valid[0]))
        steps += 1
        if terminated:
            break
    assert steps <= game.episode_length
    game.reset()


def test_invalid_action_is_a_noop(game):
    game.reset()
    mask = game.action_masks()
    invalid = np.flatnonzero(~mask)
    if len(invalid):
        obs, reward, terminated, truncated, info = game.step(int(invalid[0]))
        assert reward == 0.0 and info.get("invalid_action")
    game.reset()


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------
def test_trainer_improves_or_matches_baseline_and_verifies(compiled, simulator):
    trainer = CuAsmRLTrainer(
        compiled, simulator, ppo_config=PPOConfig(num_steps=8, seed=0), episode_length=8
    )
    result = trainer.train(32)
    assert result.best_time_ms <= result.baseline_time_ms + 1e-12
    assert result.speedup >= 1.0
    summary = result.summary()
    assert summary["kernel"] == compiled.kernel.metadata.name
    moves = trainer.trace_inference(seed=0)
    assert isinstance(moves, list)
    # Deterministic inference: the same seed gives the same trace.
    again = trainer.trace_inference(seed=0)
    assert [m.action for m in moves] == [m.action for m in again]
