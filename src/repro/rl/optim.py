"""Adam optimizer for the numpy neural-network layers.

The optimizer packs its parameters (:func:`repro.rl.nn.pack_parameters`):
every ``Parameter`` views one flat value buffer and one flat grad buffer, so
:meth:`Adam.step` and :meth:`Adam.zero_grad` are a few whole-buffer vector
ops rather than a loop over tensors.  Adam is elementwise, so the update is
bit-identical to the per-tensor one.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn import Parameter, pack_parameters


class Adam:
    """Adam with the standard bias correction (the PPO reference default)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 2.5e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-5,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._values, self._grads = pack_parameters(self.parameters)
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._t = 0

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def step(self) -> None:
        self._t += 1
        grad = self._grads
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * (grad**2)
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        self._values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
