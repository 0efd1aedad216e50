"""Proximal policy optimization with action masking (§3.7 of the paper).

The default hyperparameters follow the large-scale study the paper cites
("The 37 Implementation Details of Proximal Policy Optimization"): clipped
surrogate objective, GAE-lambda advantages, advantage normalization per
minibatch, entropy bonus, value-loss coefficient, global gradient clipping
and the Adam epsilon of 1e-5.  Gradients are computed analytically (the
softmax/log-prob/entropy derivatives) and backpropagated through the numpy
actor-critic network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rl.buffer import RolloutBuffer
from repro.rl.distributions import MaskedCategorical
from repro.rl.env_api import Env
from repro.rl.nn import clip_grad_norm
from repro.rl.optim import Adam
from repro.rl.policy import ActorCritic
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

_LOG = get_logger("rl.ppo")


@dataclass
class PPOConfig:
    """PPO hyperparameters (defaults from the reference study [11])."""

    learning_rate: float = 2.5e-4
    num_steps: int = 32  # rollout length == episode length of the assembly game
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_coef: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    update_epochs: int = 4
    num_minibatches: int = 4
    norm_advantage: bool = True
    anneal_lr: bool = False
    seed: int = 0


@dataclass
class UpdateStats:
    """Diagnostics of one PPO update (Figure 12 time series)."""

    global_step: int
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    learning_rate: float


@dataclass
class TrainingHistory:
    """Everything logged over a training run."""

    episodic_returns: list[tuple[int, float]] = field(default_factory=list)
    updates: list[UpdateStats] = field(default_factory=list)

    def returns_series(self) -> tuple[list[int], list[float]]:
        steps = [s for s, _ in self.episodic_returns]
        values = [r for _, r in self.episodic_returns]
        return steps, values

    def kl_series(self) -> tuple[list[int], list[float]]:
        return [u.global_step for u in self.updates], [u.approx_kl for u in self.updates]

    def entropy_series(self) -> tuple[list[int], list[float]]:
        return [u.global_step for u in self.updates], [u.entropy for u in self.updates]

    def best_return(self) -> float:
        return max((r for _, r in self.episodic_returns), default=float("-inf"))

    def final_return(self, window: int = 5) -> float:
        tail = [r for _, r in self.episodic_returns[-window:]]
        return float(np.mean(tail)) if tail else float("-inf")


class PPOTrainer:
    """On-policy PPO training loop for a single (masked) environment."""

    def __init__(self, env: Env, config: PPOConfig | None = None, *, policy: ActorCritic | None = None):
        self.env = env
        self.config = config or PPOConfig()
        observation_shape = env.observation_space.shape
        num_actions = env.action_space.n
        self.policy = policy or ActorCritic(observation_shape, num_actions, seed=self.config.seed)
        self.optimizer = Adam(self.policy.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory()
        self.rng = as_rng(self.config.seed)
        self.global_step = 0

    # ------------------------------------------------------------------
    def train(self, total_timesteps: int, *, callback=None) -> TrainingHistory:
        """Run PPO for ``total_timesteps`` environment steps."""
        cfg = self.config
        observation, _ = self.env.reset(seed=cfg.seed)
        done = False
        episode_return = 0.0
        num_updates = max(1, total_timesteps // cfg.num_steps)

        for update in range(1, num_updates + 1):
            if cfg.anneal_lr:
                frac = 1.0 - (update - 1) / num_updates
                self.optimizer.lr = cfg.learning_rate * frac
            buffer = RolloutBuffer(cfg.num_steps, observation.shape, self.env.action_space.n)
            for _ in range(cfg.num_steps):
                mask = self.env.action_masks()
                action, log_prob, value = self.policy.act(observation, mask, self.rng)
                next_observation, reward, terminated, truncated, info = self.env.step(action)
                self.global_step += 1
                episode_return += reward
                step_done = bool(terminated or truncated)
                buffer.add(observation, action, log_prob, reward, value, done, mask)
                observation = next_observation
                # ``done`` flags the next observation as an episode's first,
                # so GAE does not bootstrap across the boundary (CleanRL).
                done = step_done
                if step_done:
                    self.history.episodic_returns.append((self.global_step, episode_return))
                    if callback is not None:
                        callback(self, episode_return, info)
                    episode_return = 0.0
                    observation, _ = self.env.reset()
            _, last_value = self.policy.forward(observation[None, ...])
            buffer.compute_returns(float(last_value[0]), done, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda)
            stats = self._update(buffer)
            self.history.updates.append(stats)
            _LOG.debug(
                "update %d step %d kl=%.4f entropy=%.3f", update, self.global_step, stats.approx_kl, stats.entropy
            )
        return self.history

    # ------------------------------------------------------------------
    def _update(self, buffer: RolloutBuffer) -> UpdateStats:
        cfg = self.config
        batch = buffer.get()
        batch_size = cfg.num_steps
        minibatch_size = max(1, batch_size // cfg.num_minibatches)
        indices = np.arange(batch_size)

        policy_losses, value_losses, entropies, kls, clip_fracs = [], [], [], [], []
        for _ in range(cfg.update_epochs):
            self.rng.shuffle(indices)
            for start in range(0, batch_size, minibatch_size):
                mb = indices[start : start + minibatch_size]
                observations = batch.observations[mb]
                actions = batch.actions[mb]
                old_log_probs = batch.log_probs[mb]
                advantages = batch.advantages[mb]
                returns = batch.returns[mb]
                masks = batch.masks[mb]
                if cfg.norm_advantage and len(mb) > 1:
                    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

                logits, values = self.policy.forward(observations)
                dist = MaskedCategorical(logits, masks)
                log_probs = dist.log_prob(actions)
                entropy = dist.entropy()
                log_ratio = log_probs - old_log_probs
                ratio = np.exp(log_ratio)

                # Losses (for reporting).
                unclipped = -advantages * ratio
                clipped = -advantages * np.clip(ratio, 1 - cfg.clip_coef, 1 + cfg.clip_coef)
                policy_loss = float(np.maximum(unclipped, clipped).mean())
                value_error = values - returns
                value_loss = float(0.5 * (value_error**2).mean())
                entropy_mean = float(entropy.mean())
                approx_kl = float(((ratio - 1.0) - log_ratio).mean())
                clip_fraction = float((np.abs(ratio - 1.0) > cfg.clip_coef).mean())

                # ---- analytic gradients ---------------------------------
                n = len(mb)
                # d policy_loss / d log_prob: -A * ratio where the unclipped
                # branch is active, 0 where the clipped branch dominates.
                use_unclipped = unclipped >= clipped
                dloss_dlogp = np.where(use_unclipped, -advantages * ratio, 0.0) / n
                grad_logits = dist.log_prob_grad_logits(actions) * dloss_dlogp[:, None]
                # Entropy bonus (maximised, so subtract its gradient).
                grad_logits -= cfg.entropy_coef * dist.entropy_grad_logits() / n
                # Value loss gradient.
                grad_values = cfg.value_coef * value_error / n

                self.optimizer.zero_grad()
                self.policy.backward(grad_logits, grad_values)
                clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
                self.optimizer.step()

                policy_losses.append(policy_loss)
                value_losses.append(value_loss)
                entropies.append(entropy_mean)
                kls.append(approx_kl)
                clip_fracs.append(clip_fraction)

        return UpdateStats(
            global_step=self.global_step,
            policy_loss=float(np.mean(policy_losses)),
            value_loss=float(np.mean(value_losses)),
            entropy=float(np.mean(entropies)),
            approx_kl=float(np.mean(kls)),
            clip_fraction=float(np.mean(clip_fracs)),
            learning_rate=self.optimizer.lr,
        )
