"""The PPO agent's hot path against the straightforward code it replaces.

Each fast path — cached embedding rows, one read-only action mask per
schedule, flat-buffer Adam and the zero-buffer ``im2col`` — is compared
bit-for-bit with a test-local reference of the per-row / per-call /
per-tensor algorithm.  The call counts double as the CI floor: they are
deterministic where a timing floor would need a baseline on the same host.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_properties import straight_line_kernels

from repro.core import AssemblyGame, StateEmbedder
from repro.core.masking import ActionMasker
from repro.rl import ActorCritic, Adam, Box, Conv1d, Discrete, Env, PPOConfig, PPOTrainer
from repro.rl.nn import Parameter, clip_grad_norm, pack_parameters
from repro.sass.instruction import Instruction
from repro.sim import GPUSimulator
from repro.triton import compile_spec, get_spec
from repro.triton.spec import available_kernels


# ---------------------------------------------------------------------------
# Reference implementations (the algorithms the fast paths replaced)
# ---------------------------------------------------------------------------
def reference_embed(embedder: StateEmbedder, kernel) -> np.ndarray:
    """One ``embed_instruction`` call per line, ranks counted in listing order."""
    rows = []
    memory_rank = 0
    for line in kernel.lines:
        if not isinstance(line, Instruction):
            continue
        rank = None
        if line.is_actionable_memory:
            rank = memory_rank
            memory_rank += 1
        rows.append(embedder.embed_instruction(line, rank))
    return np.asarray(rows, dtype=np.float64)


class ReferenceAdam:
    """Adam looping over tensors, each with its own moment arrays."""

    def __init__(self, values, lr=2.5e-4, betas=(0.9, 0.999), eps=1e-5):
        self.values = values
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(v) for v in values]
        self._v = [np.zeros_like(v) for v in values]
        self._t = 0

    def step(self, grads) -> None:
        self._t += 1
        for i, (value, grad) in enumerate(zip(self.values, grads)):
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * (grad**2)
            m_hat = self._m[i] / (1 - self.beta1**self._t)
            v_hat = self._v[i] / (1 - self.beta2**self._t)
            value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_im2col(x: np.ndarray, kernel_size: int) -> np.ndarray:
    batch, length, channels = x.shape
    pad = kernel_size // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    cols = np.empty((batch, length, kernel_size * channels))
    for k in range(kernel_size):
        cols[:, :, k * channels : (k + 1) * channels] = padded[:, k : k + length, :]
    return cols


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Embedding rows
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", available_kernels())
def test_embed_matches_reference_on_every_seed(name):
    kernel = compile_spec(get_spec(name), scale="test").kernel
    embedder = StateEmbedder(kernel)
    assert _same_bits(embedder.embed(kernel), reference_embed(embedder, kernel))


@settings(max_examples=30, deadline=None)
@given(straight_line_kernels(), st.data())
def test_embed_matches_reference_along_swap_walks(kernel, data):
    embedder = StateEmbedder(kernel)
    indices = kernel.instruction_indices()
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        i = data.draw(st.sampled_from(indices))
        j = data.draw(st.sampled_from(indices))
        kernel = kernel.swap(i, j)
        assert _same_bits(embedder.embed(kernel), reference_embed(embedder, kernel))


def test_embed_rejects_listings_not_derived_from_the_seed():
    seed = compile_spec(get_spec("softmax"), scale="test").kernel
    embedder = StateEmbedder(seed)
    foreign = compile_spec(get_spec("softmax"), scale="test").kernel
    with pytest.raises(ValueError, match="reordering"):
        embedder.embed(foreign)
    first = seed.instruction_indices()[0]
    with pytest.raises(ValueError, match="instruction count"):
        embedder.embed(seed.insert_line(0, seed.lines[first]))


# ---------------------------------------------------------------------------
# A 64-move walk through the assembly game
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def walk():
    """64 random legal moves (with resets) on mmLeakyReLu, counting calls.

    Returns the env, the visited ``(kernel, observation, mask)`` triples and
    the number of ``embed_instruction`` / ``ActionMasker.mask`` calls.
    """
    counts = {"embed_instruction": 0, "mask": 0}
    original_mask = ActionMasker.mask
    original_row = StateEmbedder.embed_instruction

    def counted_mask(self, kernel):
        counts["mask"] += 1
        return original_mask(self, kernel)

    def counted_row(self, instr, memory_rank):
        counts["embed_instruction"] += 1
        return original_row(self, instr, memory_rank)

    patch = pytest.MonkeyPatch()
    patch.setattr(ActionMasker, "mask", counted_mask)
    patch.setattr(StateEmbedder, "embed_instruction", counted_row)
    try:
        compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test")
        env = AssemblyGame(compiled, GPUSimulator(), episode_length=8)
        counts["embed_instruction"] = 0
        rng = np.random.default_rng(0)
        observation, _ = env.reset()
        visited = []
        for _ in range(64):
            mask = env.action_masks()
            assert env.action_masks() is mask
            visited.append((env.current_kernel, observation, mask))
            legal = np.flatnonzero(mask)
            action = int(rng.choice(legal)) if len(legal) else 0
            observation, _, terminated, truncated, _ = env.step(action)
            if terminated or truncated:
                observation, _ = env.reset()
        visited.append((env.current_kernel, observation, env.action_masks()))
    finally:
        patch.undo()
    env.close()
    return env, visited, counts


def test_walk_reuses_embedding_rows(walk):
    env, visited, counts = walk
    assert counts["embed_instruction"] == 0
    for kernel, observation, _ in visited:
        assert _same_bits(observation, reference_embed(env.embedder, kernel))


def test_walk_masks_once_per_schedule_and_read_only(walk):
    env, visited, counts = walk
    distinct = {id(kernel): kernel for kernel, _, _ in visited}
    assert len(distinct) > 8, "the walk must visit several schedules"
    assert counts["mask"] == len(distinct)
    for kernel, _, mask in visited:
        assert _same_bits(mask, env.masker.mask(kernel))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


# ---------------------------------------------------------------------------
# Flat-buffer Adam
# ---------------------------------------------------------------------------
_SHAPES = [(7, 5), (5,), (3, 4, 2), (1,), (6, 1)]


def test_adam_matches_per_tensor_reference():
    rng = np.random.default_rng(0)
    initial = [rng.normal(size=shape) for shape in _SHAPES]
    parameters = [Parameter(value.copy()) for value in initial]
    adam = Adam(parameters, lr=1e-2)
    reference = ReferenceAdam([value.copy() for value in initial], lr=1e-2)
    for step in range(50):
        grads = [rng.normal(scale=3.0, size=shape) for shape in _SHAPES]
        adam.zero_grad()
        for p, grad in zip(parameters, grads):
            p.grad += grad
        # Clipping reads the per-tensor grads, so it must agree as well.
        norm = clip_grad_norm(parameters, max_norm=5.0)
        reference_norm = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
        assert norm == reference_norm
        if reference_norm > 5.0:
            grads = [g * (5.0 / reference_norm) for g in grads]
        adam.step()
        reference.step(grads)
        for p, value in zip(parameters, reference.values):
            assert _same_bits(p.value, value), f"diverged at step {step}"


class _ToyEnv(Env):
    def __init__(self):
        self.observation_space = Box((6, 4))
        self.action_space = Discrete(3)

    def reset(self, *, seed=None):
        return np.zeros((6, 4)), {}

    def step(self, action):
        return np.ones((6, 4)), float(action), False, False, {}


def _shares(parameters, values, grads) -> bool:
    return all(
        np.shares_memory(p.value, values) and np.shares_memory(p.grad, grads)
        for p in parameters
    )


def test_policy_parameters_view_the_optimizer_buffers():
    trainer = PPOTrainer(_ToyEnv(), PPOConfig(num_steps=4))
    parameters = trainer.policy.parameters()
    values, grads = trainer.optimizer._values, trainer.optimizer._grads
    assert values.size == sum(p.value.size for p in parameters)
    assert _shares(parameters, values, grads)

    state = ActorCritic((6, 4), 3, seed=7).state_dict()
    trainer.policy.load_state_dict(state)
    assert _shares(parameters, values, grads)
    for i, p in enumerate(parameters):
        assert _same_bits(p.value, state[f"p{i}"])


def test_second_optimizer_shares_the_buffers():
    policy = ActorCritic((6, 4), 3, seed=0)
    parameters = policy.parameters()
    first = Adam(parameters, lr=1e-2)
    second = Adam(list(reversed(parameters)), lr=1e-2)
    assert second._values is first._values and second._grads is first._grads
    before = [p.value.copy() for p in parameters]
    for p in parameters:
        p.grad[...] = 1.0
    first.step()
    assert all(not np.array_equal(p.value, b) for p, b in zip(parameters, before))
    with pytest.raises(ValueError, match="different group"):
        pack_parameters(parameters[:2])


# ---------------------------------------------------------------------------
# im2col
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
@pytest.mark.parametrize("length", [1, 2, 9])
def test_im2col_matches_np_pad_reference(kernel_size, length):
    layer = Conv1d(4, 2, kernel_size=kernel_size, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(3, length, 4))
    assert _same_bits(layer._im2col(x), reference_im2col(x, kernel_size))
