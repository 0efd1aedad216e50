"""Tests for the numpy RL stack: layers, distributions, GAE and PPO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import (
    ActorCritic,
    Adam,
    Box,
    Conv1d,
    Dense,
    Discrete,
    Env,
    GlobalAvgPool,
    MaskedCategorical,
    PPOConfig,
    PPOTrainer,
    ReLU,
    RolloutBuffer,
    Sequential,
    clip_grad_norm,
)


# ---------------------------------------------------------------------------
# Layers: gradient checks against finite differences
# ---------------------------------------------------------------------------
def _finite_diff_check(layer, x, eps=1e-6):
    y = layer.forward(x)
    grad_out = np.random.default_rng(0).normal(size=y.shape)
    for p in layer.parameters():
        p.zero_grad()
    layer.backward(grad_out)
    loss = lambda: float((layer.forward(x) * grad_out).sum())
    for p in layer.parameters():
        flat = p.value.reshape(-1)
        for idx in np.random.default_rng(1).choice(flat.size, size=min(5, flat.size), replace=False):
            original = flat[idx]
            flat[idx] = original + eps
            up = loss()
            flat[idx] = original - eps
            down = loss()
            flat[idx] = original
            numeric = (up - down) / (2 * eps)
            analytic = p.grad.reshape(-1)[idx]
            assert abs(numeric - analytic) < 1e-4 * max(1.0, abs(numeric)), (numeric, analytic)


def test_dense_gradients():
    layer = Dense(6, 4, rng=np.random.default_rng(0))
    _finite_diff_check(layer, np.random.default_rng(2).normal(size=(3, 6)))


def test_conv1d_gradients():
    layer = Conv1d(5, 3, kernel_size=3, rng=np.random.default_rng(0))
    _finite_diff_check(layer, np.random.default_rng(2).normal(size=(2, 7, 5)))


def test_sequential_shapes_and_pooling():
    net = Sequential(Conv1d(4, 8), ReLU(), GlobalAvgPool(), Dense(8, 2))
    x = np.random.default_rng(0).normal(size=(3, 10, 4))
    y = net.forward(x)
    assert y.shape == (3, 2)
    grad_in = net.backward(np.ones_like(y))
    assert grad_in.shape == x.shape


def test_clip_grad_norm():
    layer = Dense(4, 4)
    layer.weight.grad[:] = 10.0
    layer.bias.grad[:] = 10.0
    norm = clip_grad_norm(layer.parameters(), max_norm=1.0)
    assert norm > 1.0
    total = np.sqrt(sum(float((p.grad**2).sum()) for p in layer.parameters()))
    assert total == pytest.approx(1.0, rel=1e-6)


def test_adam_reduces_quadratic_loss():
    layer = Dense(1, 1, rng=np.random.default_rng(0))
    optimizer = Adam(layer.parameters(), lr=0.1)
    target = 3.0
    x = np.ones((1, 1))
    for _ in range(200):
        y = layer.forward(x)
        grad = 2 * (y - target)
        optimizer.zero_grad()
        layer.backward(grad)
        optimizer.step()
    assert abs(float(layer.forward(x)[0, 0]) - target) < 1e-2


# ---------------------------------------------------------------------------
# Masked categorical distribution
# ---------------------------------------------------------------------------
def test_masked_categorical_masks_invalid_actions():
    logits = np.zeros((1, 4))
    mask = np.array([[True, False, True, False]])
    dist = MaskedCategorical(logits, mask)
    assert dist.probs[0, 1] < 1e-6 and dist.probs[0, 3] < 1e-6
    assert dist.probs[0, 0] == pytest.approx(0.5, abs=1e-6)
    samples = dist.sample(np.random.default_rng(0))
    assert samples[0] in (0, 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8))
def test_distribution_probabilities_sum_to_one(logits):
    dist = MaskedCategorical(np.array(logits))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert dist.entropy()[0] >= -1e-9


def test_log_prob_grad_matches_finite_difference():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 5))
    action = np.array([2])
    dist = MaskedCategorical(logits)
    analytic = dist.log_prob_grad_logits(action)
    eps = 1e-6
    for j in range(5):
        bumped = logits.copy()
        bumped[0, j] += eps
        up = MaskedCategorical(bumped).log_prob(action)[0]
        bumped[0, j] -= 2 * eps
        down = MaskedCategorical(bumped).log_prob(action)[0]
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - analytic[0, j]) < 1e-5


# ---------------------------------------------------------------------------
# Rollout buffer / GAE
# ---------------------------------------------------------------------------
def test_gae_matches_manual_computation():
    buffer = RolloutBuffer(3, (2, 2), 4)
    for reward, value in [(1.0, 0.5), (0.0, 0.2), (2.0, 0.1)]:
        buffer.add(np.zeros((2, 2)), 0, 0.0, reward, value, False, None)
    buffer.compute_returns(last_value=0.0, last_done=True, gamma=0.9, gae_lambda=0.8)
    gamma, lam = 0.9, 0.8
    deltas = [1.0 + gamma * 0.2 - 0.5, 0.0 + gamma * 0.1 - 0.2, 2.0 + 0.0 - 0.1]
    adv2 = deltas[2]
    adv1 = deltas[1] + gamma * lam * adv2
    adv0 = deltas[0] + gamma * lam * adv1
    assert buffer.advantages == pytest.approx([adv0, adv1, adv2])
    assert buffer.returns == pytest.approx([adv0 + 0.5, adv1 + 0.2, adv2 + 0.1])


# ---------------------------------------------------------------------------
# PPO on a tiny synthetic environment
# ---------------------------------------------------------------------------
class _BanditEnv(Env):
    """Two-action bandit: action 1 yields +1, action 0 yields 0."""

    def __init__(self):
        self.observation_space = Box((4, 3))
        self.action_space = Discrete(2)
        self._steps = 0

    def reset(self, *, seed=None):
        self._steps = 0
        return np.zeros((4, 3)), {}

    def step(self, action):
        self._steps += 1
        reward = 1.0 if action == 1 else 0.0
        truncated = self._steps >= 8
        return np.zeros((4, 3)), reward, False, truncated, {}


def test_ppo_learns_the_bandit():
    env = _BanditEnv()
    trainer = PPOTrainer(env, PPOConfig(num_steps=8, learning_rate=5e-3, seed=0))
    history = trainer.train(total_timesteps=8 * 30)
    assert history.episodic_returns, "episodes must be recorded"
    assert history.final_return(window=5) >= 6.0  # near-optimal is 8
    # Training statistics are finite and well formed.
    assert all(np.isfinite(u.approx_kl) for u in history.updates)
    assert all(u.entropy >= 0 for u in history.updates)


class _ThreeStepEnv(Env):
    """Episodes of exactly three steps; observations differ per step."""

    def __init__(self):
        self.observation_space = Box((4, 3))
        self.action_space = Discrete(2)
        self._steps = 0

    def _observation(self):
        return np.full((4, 3), 0.5 + self._steps) * np.arange(1, 4)

    def reset(self, *, seed=None):
        self._steps = 0
        return self._observation(), {}

    def step(self, action):
        self._steps += 1
        return self._observation(), 1.0 + action, self._steps == 3, False, {}


def _rollouts(monkeypatch, num_steps):
    """Train one update of ``num_steps`` on the three-step env; return its buffer."""
    buffers = []
    update = PPOTrainer._update

    def capture(self, buffer):
        buffers.append(buffer)
        return update(self, buffer)

    monkeypatch.setattr(PPOTrainer, "_update", capture)
    trainer = PPOTrainer(_ThreeStepEnv(), PPOConfig(num_steps=num_steps, seed=0))
    trainer.train(total_timesteps=num_steps)
    (buffer,) = buffers
    return buffer


def test_gae_does_not_bootstrap_across_episode_boundaries(monkeypatch):
    buffer = _rollouts(monkeypatch, 8)
    # dones[t] flags the first observation of a new episode.
    assert buffer.dones.tolist() == [False, False, False, True, False, False, True, False]
    assert np.abs(buffer.values).min() > 1e-3, "values must be non-zero to tell"
    for last in (2, 5):
        assert buffer.advantages[last] == pytest.approx(
            buffer.rewards[last] - buffer.values[last], rel=1e-12, abs=1e-12
        )
    # Mid-episode steps do bootstrap from the next value.
    assert buffer.advantages[1] != pytest.approx(buffer.rewards[1] - buffer.values[1])


def test_gae_last_step_ending_an_episode_is_not_bootstrapped(monkeypatch):
    buffer = _rollouts(monkeypatch, 6)
    assert buffer.dones.tolist() == [False, False, False, True, False, False]
    assert buffer.advantages[5] == pytest.approx(
        buffer.rewards[5] - buffer.values[5], rel=1e-12, abs=1e-12
    )


def test_actor_critic_checkpoint_round_trip(tmp_path):
    model = ActorCritic((6, 4), 5, seed=0)
    observation = np.random.default_rng(0).normal(size=(6, 4))
    logits_before, value_before = model.forward(observation[None])
    path = tmp_path / "policy.npz"
    model.save(path)
    restored = ActorCritic.load(path, (6, 4), 5)
    logits_after, value_after = restored.forward(observation[None])
    assert np.allclose(logits_before, logits_after)
    assert np.allclose(value_before, value_after)
