"""Layers with hand-written forward/backward passes.

Conventions:

- Batch-first arrays: ``(N, D)`` for dense layers, ``(N, C, H, W)`` for
  convolutional layers.
- ``forward`` caches whatever the matching ``backward`` needs; calling
  ``backward`` before ``forward`` raises :class:`~repro.errors.NotFittedError`.
- Parameters and their gradients are exposed as dictionaries keyed by short
  names (``"W"``, ``"b"``) so optimizers and serialization can treat all
  layers uniformly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.nn import initializers
from repro.rng import SeedLike, ensure_rng


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters (empty for stateless layers)."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys, filled in by backward."""
        return {}

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Inference (``training=False``) is batch-invariant: every row goes
    through its own vector-matrix product, the same BLAS gemv a one-row
    ``x[i:i+1] @ W`` issues, so a row's output is bit-identical whatever
    batch it arrives in.  A blocked gemm over the whole batch would sum in
    a batch-size-dependent order and differ in the last bits.  Training
    keeps the gemm.
    """

    def __init__(self, in_features: int, out_features: int,
                 seed: SeedLike = None, init: str = "he") -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Dense dims must be positive, got ({in_features}, {out_features})")
        rng = ensure_rng(seed)
        if init == "he":
            self.W = initializers.he_normal((in_features, out_features),
                                            fan_in=in_features, rng=rng)
        elif init == "glorot":
            self.W = initializers.glorot_uniform(
                (in_features, out_features), fan_in=in_features,
                fan_out=out_features, rng=rng)
        else:
            raise ConfigurationError(f"unknown init {init!r}")
        self.b = initializers.zeros((out_features,))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.W.shape[0]

    @property
    def out_features(self) -> int:
        return self.W.shape[1]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise DimensionMismatchError(
                f"Dense expects (N, D) input, got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise DimensionMismatchError(
                f"Dense built for {self.in_features} features, got {x.shape[1]}")
        if not training:
            return np.matmul(x[:, None, :], self.W)[:, 0, :] + self.b
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise NotFittedError("Dense.backward called before forward")
        self.dW = self._x.T @ grad_out
        self.db = grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def params(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}


def _im2col_indices(h: int, w: int, kh: int, kw: int, stride: int,
                    pad: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Row/col gather indices for im2col on an ``(H, W)`` plane."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    i0 = np.repeat(np.arange(kh), kw)
    j0 = np.tile(np.arange(kw), kh)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    return rows, cols, out_h, out_w


class Conv2d(Layer):
    """2-D convolution implemented with im2col.

    Input ``(N, C_in, H, W)`` -> output ``(N, C_out, H', W')``.  Supports
    square kernels, symmetric zero padding and uniform stride, which covers
    the paper's VAE encoder/decoder and small classifiers.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 seed: SeedLike = None) -> None:
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ConfigurationError("Conv2d dims/stride must be positive")
        if padding < 0:
            raise ConfigurationError("Conv2d padding must be non-negative")
        rng = ensure_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.W = initializers.he_normal(
            (out_channels, in_channels, kernel_size, kernel_size),
            fan_in=fan_in, rng=rng)
        self.b = initializers.zeros((out_channels,))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    @property
    def in_channels(self) -> int:
        return self.W.shape[1]

    @property
    def out_channels(self) -> int:
        return self.W.shape[0]

    def _im2col(self, x: np.ndarray) -> Tuple[np.ndarray, int, int]:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        if p > 0:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        rows, cols, out_h, out_w = _im2col_indices(h, w, k, k, s, p)
        # (N, C, k*k, out_h*out_w)
        patches = x[:, :, rows, cols]
        # (C*k*k, N*out_h*out_w)
        col = patches.transpose(1, 2, 0, 3).reshape(c * k * k, n * out_h * out_w)
        return col, out_h, out_w

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise DimensionMismatchError(
                f"Conv2d expects (N, C, H, W) input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise DimensionMismatchError(
                f"Conv2d built for {self.in_channels} channels, got {x.shape[1]}")
        n = x.shape[0]
        col, out_h, out_w = self._im2col(x)
        w_row = self.W.reshape(self.out_channels, -1)
        out = w_row @ col + self.b[:, None]
        out = out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if training:
            self._cache = (x.shape, col)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise NotFittedError("Conv2d.backward called before forward")
        x_shape, col = self._cache
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = grad_out.shape[2], grad_out.shape[3]
        # (C_out, N*out_h*out_w)
        grad_row = grad_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.dW = (grad_row @ col.T).reshape(self.W.shape)
        self.db = grad_row.sum(axis=1)
        w_row = self.W.reshape(self.out_channels, -1)
        # (C*k*k, N*out_h*out_w) -> scatter back to padded input
        dcol = w_row.T @ grad_row
        dcol = dcol.reshape(c, k * k, n, out_h * out_w).transpose(2, 0, 1, 3)
        dx_padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
        rows, cols, _, _ = _im2col_indices(h, w, k, k, s, p)
        np.add.at(dx_padded, (slice(None), slice(None), rows, cols), dcol)
        if p > 0:
            return dx_padded[:, :, p:-p, p:-p]
        return dx_padded

    def params(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}


class Flatten(Layer):
    """Reshape ``(N, ...)`` to ``(N, D)``."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise NotFittedError("Flatten.backward called before forward")
        return grad_out.reshape(self._shape)


class Reshape(Layer):
    """Reshape ``(N, D)`` to ``(N, *target)``."""

    def __init__(self, target: Tuple[int, ...]) -> None:
        if any(d <= 0 for d in target):
            raise ConfigurationError(f"Reshape target must be positive, got {target}")
        self.target = tuple(target)
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise NotFittedError("Reshape.backward called before forward")
        return grad_out.reshape(self._shape)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise NotFittedError("ReLU.backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ConfigurationError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise NotFittedError("LeakyReLU.backward called before forward")
        return np.where(self._mask, grad_out, self.alpha * grad_out)


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: the
        # exponent is never positive, so nothing overflows.  Each step
        # runs in place on the temporaries it owns.
        ex = np.abs(x)
        if ex.dtype.kind != "f":  # integer input: float temporaries
            ex = ex.astype(np.float64)
        np.negative(ex, out=ex)
        np.exp(ex, out=ex)
        out = np.where(x >= 0, 1.0, ex)
        np.add(ex, 1.0, out=ex)
        np.divide(out, ex, out=out)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise NotFittedError("Sigmoid.backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.tanh(x)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise NotFittedError("Tanh.backward called before forward")
        return grad_out * (1.0 - self._out ** 2)


class Upsample2x(Layer):
    """Nearest-neighbour 2x spatial upsampling for ``(N, C, H, W)`` input.

    Used by the VAE decoder to grow feature maps between same-padding
    convolutions (a cheap stand-in for transposed convolutions).
    """

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise DimensionMismatchError(
                f"Upsample2x expects (N, C, H, W), got shape {x.shape}")
        return x.repeat(2, axis=2).repeat(2, axis=3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = grad_out.shape
        if h % 2 or w % 2:
            raise DimensionMismatchError(
                f"Upsample2x.backward needs even spatial dims, got {grad_out.shape}")
        return grad_out.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
