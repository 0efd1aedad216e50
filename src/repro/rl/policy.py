"""Actor-critic policy network.

Matches the architecture described in §3.5 of the paper: a convolutional
encoder over the instruction-embedding matrix (one row per SASS instruction)
followed by an MLP that outputs action probabilities, plus a value head for
the critic.  Implemented with the numpy layers of :mod:`repro.rl.nn`.
"""

from __future__ import annotations

import numpy as np

from repro.rl.distributions import MaskedCategorical
from repro.rl.nn import Conv1d, Dense, GlobalAvgPool, Parameter, ReLU, Sequential, Tanh


class ActorCritic:
    """CNN encoder with categorical actor and scalar critic heads."""

    def __init__(
        self,
        observation_shape: tuple[int, int],
        num_actions: int,
        *,
        conv_channels: int = 32,
        hidden: int = 64,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.observation_shape = tuple(observation_shape)
        self.num_actions = int(num_actions)
        num_features = observation_shape[1]
        self.encoder = Sequential(
            Conv1d(num_features, conv_channels, kernel_size=3, rng=rng),
            ReLU(),
            Conv1d(conv_channels, conv_channels, kernel_size=3, rng=rng),
            ReLU(),
            GlobalAvgPool(),
            Dense(conv_channels, hidden, rng=rng),
            Tanh(),
        )
        # Small output gain for the policy head (PPO implementation detail).
        self.actor_head = Dense(hidden, num_actions, gain=0.01, rng=rng)
        self.critic_head = Dense(hidden, 1, gain=1.0, rng=rng)
        self._hidden: np.ndarray | None = None

    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return (
            self.encoder.parameters()
            + self.actor_head.parameters()
            + self.critic_head.parameters()
        )

    def forward(self, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns ``(logits, values)`` for a batch of observations."""
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim == 2:
            observations = observations[None, ...]
        hidden = self.encoder.forward(observations)
        self._hidden = hidden
        logits = self.actor_head.forward(hidden)
        values = self.critic_head.forward(hidden)[:, 0]
        return logits, values

    def backward(self, grad_logits: np.ndarray, grad_values: np.ndarray) -> None:
        """Backpropagate gradients from the two heads through the encoder."""
        grad_hidden = self.actor_head.backward(grad_logits)
        grad_hidden = grad_hidden + self.critic_head.backward(
            np.asarray(grad_values, dtype=np.float64).reshape(-1, 1)
        )
        self.encoder.backward(grad_hidden)

    # ------------------------------------------------------------------
    def distribution(self, observations: np.ndarray, masks: np.ndarray | None = None) -> tuple[MaskedCategorical, np.ndarray]:
        logits, values = self.forward(observations)
        return MaskedCategorical(logits, masks), values

    def act(
        self,
        observation: np.ndarray,
        mask: np.ndarray | None,
        rng: np.random.Generator,
        *,
        deterministic: bool = False,
    ) -> tuple[int, float, float]:
        """Sample (or take the argmax of) one action.

        Returns ``(action, log_prob, value)``.
        """
        dist, values = self.distribution(observation[None, ...] if observation.ndim == 2 else observation, None if mask is None else mask[None, :])
        action = int(dist.mode()[0]) if deterministic else int(dist.sample(rng)[0])
        log_prob = float(dist.log_prob(np.array([action]))[0])
        return action, log_prob, float(values[0])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"p{i}": p.value.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"checkpoint has {len(state)} tensors, expected {len(params)}")
        for i, p in enumerate(params):
            value = np.asarray(state[f"p{i}"], dtype=np.float64)
            if value.shape != p.value.shape:
                raise ValueError(f"parameter {i} shape mismatch: {value.shape} vs {p.value.shape}")
            p.value[...] = value

    def save(self, path) -> None:
        np.savez(path, **self.state_dict())

    @classmethod
    def load(cls, path, observation_shape, num_actions, **kwargs) -> "ActorCritic":
        model = cls(observation_shape, num_actions, **kwargs)
        data = np.load(path)
        model.load_state_dict({key: data[key] for key in data.files})
        return model
