"""Minimal neural-network layers in numpy with explicit backpropagation.

PyTorch is not available offline, so the PPO agent's policy/value network —
a small CNN over the instruction-embedding matrix followed by MLP heads
(§3.5 of the paper) — is implemented here from scratch.  Each layer caches
its forward activations and implements ``backward`` returning the gradient
with respect to its input while accumulating parameter gradients.

An optimizer packs its parameters with :func:`pack_parameters`, after which
each ``Parameter`` views a slice of one flat value buffer and one flat grad
buffer.  Layers only ever read ``value`` and accumulate into ``grad`` in
place, so they work the same packed or not.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with its gradient accumulator.

    Once an optimizer packs it (:func:`pack_parameters`), ``value`` and
    ``grad`` are views into that optimizer's flat buffers: update them in
    place (``p.value[...] = ...``), never by rebinding.
    """

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        #: The ``(values, grads)`` flat buffers this parameter views, if packed.
        self._packed: tuple[np.ndarray, np.ndarray] | None = None

    def zero_grad(self) -> None:
        self.grad[:] = 0.0

    @property
    def shape(self):
        return self.value.shape


def pack_parameters(parameters: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Move the parameters into one flat value buffer and one flat grad buffer.

    Afterwards each parameter's ``value`` and ``grad`` are reshaped views of
    its slice of the two buffers, so an optimizer updates every parameter
    with a few whole-buffer vector ops.  Packing is idempotent: parameters
    that already make up one packed group, in any order, keep their buffers,
    so a second optimizer over the same model shares them with the first.
    Packing part of another group would detach it from that group's
    optimizer, and raises instead.
    """
    group = parameters[0]._packed if parameters else None
    if (
        group is not None
        and all(p._packed is group for p in parameters)
        and len({id(p) for p in parameters}) == len(parameters)
        and sum(p.value.size for p in parameters) == group[0].size
    ):
        return group
    if any(p._packed is not None for p in parameters):
        raise ValueError("parameters are already packed into a different group")
    total = sum(p.value.size for p in parameters)
    values, grads = np.empty(total), np.empty(total)
    group = (values, grads)
    offset = 0
    for p in parameters:
        end = offset + p.value.size
        values[offset:end] = p.value.reshape(-1)
        grads[offset:end] = p.grad.reshape(-1)
        p.value = values[offset:end].reshape(p.value.shape)
        p.grad = grads[offset:end].reshape(p.grad.shape)
        p._packed = group
        offset = end
    return group


def orthogonal_init(shape, gain: float = 1.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Orthogonal initialization (the PPO implementation detail the paper's
    reference implementation [11] prescribes)."""
    rng = rng or np.random.default_rng(0)
    flat_shape = (shape[0], int(np.prod(shape[1:]))) if len(shape) > 1 else (shape[0], 1)
    a = rng.normal(0.0, 1.0, flat_shape)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == flat_shape else vt
    return (gain * q.reshape(shape)).astype(np.float64)


class Layer:
    """Base layer: forward caches what backward needs."""

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, *, gain: float = np.sqrt(2), rng=None):
        self.weight = Parameter(orthogonal_init((in_features, out_features), gain=gain, rng=rng))
        self.bias = Parameter(np.zeros(out_features))
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.weight.grad += self._x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T


class ReLU(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Tanh(Layer):
    def __init__(self):
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - self._y**2)


class Conv1d(Layer):
    """1-D convolution over the instruction axis, as one matmul over im2col.

    Input shape ``(batch, length, in_channels)``; output
    ``(batch, length, out_channels)`` with symmetric zero padding so the
    instruction count is preserved.  :meth:`_im2col` copies each tap's rows
    into a zeroed column buffer, so the padding is never materialized.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3, *, rng=None):
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            orthogonal_init((kernel_size * in_channels, out_channels), gain=np.sqrt(2), rng=rng)
        )
        self.bias = Parameter(np.zeros(out_channels))
        self._cols: np.ndarray | None = None
        self._input_shape: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """Tap ``k`` of output row ``t`` is input row ``t + k - pad``, or zero."""
        batch, length, channels = x.shape
        pad = self.kernel_size // 2
        cols = np.zeros((batch, length, self.kernel_size * channels))
        for k in range(self.kernel_size):
            shift = k - pad
            lo, hi = max(0, -shift), min(length, length - shift)
            if lo < hi:
                cols[:, lo:hi, k * channels : (k + 1) * channels] = x[:, lo + shift : hi + shift, :]
        return cols

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        self._cols = self._im2col(x)
        batch, length, _ = x.shape
        flat = self._cols.reshape(batch * length, -1)
        out = flat @ self.weight.value + self.bias.value
        return out.reshape(batch, length, self.out_channels)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        batch, length, _ = grad.shape
        grad_flat = grad.reshape(batch * length, self.out_channels)
        cols_flat = self._cols.reshape(batch * length, -1)
        self.weight.grad += cols_flat.T @ grad_flat
        self.bias.grad += grad_flat.sum(axis=0)
        grad_cols = (grad_flat @ self.weight.value.T).reshape(batch, length, -1)
        # col2im: scatter the column gradients back to the padded input.
        pad = self.kernel_size // 2
        channels = self.in_channels
        grad_padded = np.zeros((batch, length + 2 * pad, channels))
        for k in range(self.kernel_size):
            grad_padded[:, k : k + length, :] += grad_cols[:, :, k * channels : (k + 1) * channels]
        return grad_padded[:, pad : pad + length, :]


class GlobalAvgPool(Layer):
    """Mean over the instruction axis: ``(batch, length, C) -> (batch, C)``."""

    def __init__(self):
        self._length: int = 1
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._length = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        batch, length, channels = self._shape
        return np.repeat(grad[:, None, :], length, axis=1) / length


class Sequential(Layer):
    """A chain of layers."""

    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Global gradient-norm clipping (PPO implementation detail)."""
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in parameters:
            p.grad *= scale
    return total
