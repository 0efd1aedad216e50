"""Rollout buffer with generalized advantage estimation (GAE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RolloutBatch:
    """Flattened rollout data ready for the PPO update."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    masks: np.ndarray


class RolloutBuffer:
    """Stores one rollout of ``num_steps`` transitions for a single environment."""

    def __init__(self, num_steps: int, observation_shape, num_actions: int):
        self.num_steps = int(num_steps)
        self.observation_shape = tuple(observation_shape)
        self.num_actions = int(num_actions)
        self.reset()

    def reset(self) -> None:
        self.observations = np.zeros((self.num_steps, *self.observation_shape), dtype=np.float64)
        self.actions = np.zeros(self.num_steps, dtype=np.int64)
        self.log_probs = np.zeros(self.num_steps, dtype=np.float64)
        self.rewards = np.zeros(self.num_steps, dtype=np.float64)
        self.values = np.zeros(self.num_steps, dtype=np.float64)
        self.dones = np.zeros(self.num_steps, dtype=bool)
        self.masks = np.ones((self.num_steps, self.num_actions), dtype=bool)
        self._pos = 0

    @property
    def full(self) -> bool:
        return self._pos >= self.num_steps

    def add(self, observation, action, log_prob, reward, value, done, mask) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self._pos
        self.observations[i] = observation
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = done
        if mask is not None:
            self.masks[i] = mask
        self._pos += 1

    def compute_returns(self, last_value: float, last_done: bool, *, gamma: float, gae_lambda: float) -> None:
        """GAE-lambda advantages and returns (CleanRL-style).

        ``dones[t]`` marks ``observations[t]`` as the first of a new episode
        and ``last_done`` does the same for the observation after the
        rollout, so an episode's last step is never bootstrapped.
        """
        advantages = np.zeros(self.num_steps, dtype=np.float64)
        last_gae = 0.0
        for t in reversed(range(self.num_steps)):
            if t == self.num_steps - 1:
                next_non_terminal = 1.0 - float(last_done)
                next_value = last_value
            else:
                next_non_terminal = 1.0 - float(self.dones[t + 1])
                next_value = self.values[t + 1]
            delta = self.rewards[t] + gamma * next_value * next_non_terminal - self.values[t]
            last_gae = delta + gamma * gae_lambda * next_non_terminal * last_gae
            advantages[t] = last_gae
        self.advantages = advantages
        self.returns = advantages + self.values

    def get(self) -> RolloutBatch:
        return RolloutBatch(
            observations=self.observations,
            actions=self.actions,
            log_probs=self.log_probs,
            values=self.values,
            advantages=self.advantages,
            returns=self.returns,
            masks=self.masks,
        )
