"""Minimal deterministic neural-network engine.

1D convolutions, relu/sigmoid, dense layers, MSE loss, Adam, the one
training loop and checkpoints. Two numeric modes: float32 for training,
float64 for the tests' finite-difference gradient checks. A batch is the
leading tensor dimension and every layer's forward is pure given
(params, input).
The engine starts no threads itself, but `matmul` runs on the BLAS library's
threads, as many as OPENBLAS_NUM_THREADS / OMP_NUM_THREADS allow. Outputs
do not depend on that count: tests/test_cli.py trains a checkpoint with one
and with two BLAS threads and compares the bytes.

Tensor conventions: Conv1d (and ReLU/Sigmoid after it) maps (N, C, T) arrays,
Dense maps (N, F).

Parameter layout: a model keeps all its weights in one flat vector
`model.params` and their gradients in `model.grads`, in layer order, then each
layer's `param_names` order (w before b), each array flattened in C order.
This is also the order of a checkpoint's payload. A model's backward fills
`model.grads` and returns nothing: no caller reads the input gradient, so the
first layer runs only the weight half of its backward (input_grad=False).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .util import atomic_open

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# --------------------------------------------------------------------------
# loss and optimizer


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise DataError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DataError("mse: empty tensors")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


class Adam:
    """Bias-corrected Adam over one flat parameter vector, updated in place:
    the layers' w/b are views of it."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise DataError(f"adam: gradient shape {grad.shape} != parameter shape "
                            f"{self.params.shape}")
        if not np.isfinite(grad).all():
            raise DivergenceError("adam: non-finite gradient")
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        self.params -= self.lr * (self.m / (1.0 - ADAM_BETA1**self.t)) / (
            np.sqrt(self.v / (1.0 - ADAM_BETA2**self.t)) + ADAM_EPS)


# --------------------------------------------------------------------------
# layers


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv1d | relu | sigmoid | dense
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0


class Layer:
    """A forward/backward pair, which each subclass defines, with internally
    cached activations. A layer with weights names them in param_names; the
    gradient of weight "w" accumulates in "gw"."""

    spec: LayerSpec
    param_names: tuple[str, ...] = ()

    def _cached(self, value: np.ndarray | None, grad_y: np.ndarray | None = None) -> np.ndarray:
        """What forward saved for backward; DataError if forward never ran, or
        if a grad_y is given whose shape is not the saved array's (an
        elementwise backward would otherwise broadcast it)."""
        if value is None:
            raise DataError(f"{self.spec.kind}: backward called before forward")
        if grad_y is not None and grad_y.shape != value.shape:
            raise DataError(
                f"{self.spec.kind} backward: grad_y shape {grad_y.shape} != {value.shape}")
        return value


def conv_output_length(t: int, kernel: int, stride: int, pad: int) -> int:
    return (t + 2 * pad - kernel) // stride + 1


class Conv1d(Layer):
    """y[n,o,t] = b[o] + sum_{c,j} w[o,c,j] * x_padded[n,c,t*stride+j].

    Forward lays x out as contiguous columns cols[n, c*k + j, t] =
    x_padded[n, c, t*stride + j], so that the convolution, the weight gradient
    and the input gradient are one matmul each; backward reuses the columns.
    backward(grad_y, input_grad=False) runs only the weight half: it
    accumulates gw and gb and returns None, skipping the input gradient.
    """

    param_names = ("w", "b")

    def __init__(self, in_channels, out_channels, kernel, stride=1, pad=0, *,
                 rng: np.random.Generator, dtype=np.float32):
        self.spec = LayerSpec("conv1d", in_channels, out_channels, kernel, stride, pad)
        self.w = glorot_uniform((out_channels, in_channels, kernel), in_channels * kernel,
                                out_channels * kernel, rng, dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None
        self._cols: np.ndarray | None = None

    def forward(self, x):
        n, c, t = x.shape
        out_ch, in_ch, kernel = self.w.shape
        stride, pad = self.spec.stride, self.spec.pad
        if c != in_ch:
            raise DataError(f"conv1d: input has {c} channels, kernel expects {in_ch}")
        t_out = conv_output_length(t, kernel, stride, pad)
        if t_out < 1:
            raise DataError(
                f"conv1d: output length {t_out} < 1 for T={t}, k={kernel}, s={stride}, p={pad}"
            )
        # filled one tap j at a time from a strided slice of x; the entries
        # that fall in the zero padding keep the zeros they were allocated with
        cols = np.zeros((n, c, kernel, t_out), dtype=x.dtype)
        for j in range(kernel):
            # outputs lo..hi-1 read x[lo*stride + j - pad], ... inside [0, T)
            lo = max(0, -((j - pad) // stride))
            hi = min(t_out, (t - 1 - j + pad) // stride + 1)
            if hi > lo:
                first = lo * stride + j - pad
                cols[:, :, j, lo:hi] = x[:, :, first : first + (hi - lo - 1) * stride + 1 : stride]
        cols = cols.reshape(n, c * kernel, t_out)
        self._x, self._cols = x, cols
        y = np.matmul(self.w.reshape(out_ch, in_ch * kernel), cols)
        y += self.b[None, :, None]
        return y

    def backward(self, grad_y, *, input_grad=True):
        cols = self._cached(self._cols)
        n, _, t = self._x.shape
        out_ch, in_ch, kernel = self.w.shape
        stride, pad = self.spec.stride, self.spec.pad
        t_out = cols.shape[2]
        if grad_y.shape != (n, out_ch, t_out):
            raise DataError(
                f"conv1d backward: grad_y shape {grad_y.shape} != {(n, out_ch, t_out)}"
            )

        self.gb += grad_y.sum(axis=(0, 2))
        self.gw += np.matmul(grad_y, cols.transpose(0, 2, 1)).sum(0).reshape(out_ch, in_ch, kernel)
        if not input_grad:
            return None

        # scatter column gradients back onto the padded input, one tap at a time
        grad_cols = np.matmul(self.w.reshape(out_ch, in_ch * kernel).T, grad_y)
        grad_cols = grad_cols.reshape(n, in_ch, kernel, t_out)
        grad_xp = np.zeros((n, in_ch, t + 2 * pad), dtype=self._x.dtype)
        for j in range(kernel):
            grad_xp[:, :, j : j + stride * t_out : stride] += grad_cols[:, :, j, :]
        return grad_xp[:, :, pad : pad + t] if pad > 0 else grad_xp


class ReLU(Layer):
    def __init__(self):
        self.spec = LayerSpec("relu")
        self._x = None

    def forward(self, x):
        self._x = x
        return np.maximum(x, 0.0)

    def backward(self, grad_y):
        return grad_y * (self._cached(self._x, grad_y) > 0.0)


class Sigmoid(Layer):
    def __init__(self):
        self.spec = LayerSpec("sigmoid")
        self._y = None

    def forward(self, x):
        # overflow-free: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below
        z = np.exp(-np.abs(x))
        self._y = np.where(x >= 0, 1.0, z) / (1.0 + z)
        return self._y

    def backward(self, grad_y):
        """Derivative from the forward output: sigma' = y * (1 - y)."""
        y = self._cached(self._y, grad_y)
        return grad_y * y * (1.0 - y)


class Dense(Layer):
    param_names = ("w", "b")

    def __init__(self, in_width, out_width, *, rng: np.random.Generator, dtype=np.float32):
        self.spec = LayerSpec("dense", in_width, out_width)
        self.w = glorot_uniform((in_width, out_width), in_width, out_width, rng, dtype)
        self.b = np.zeros(out_width, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise DataError(
                f"dense: input shape {x.shape} incompatible with weights {self.w.shape}")
        self._x = x
        return x @ self.w + self.b[None, :]

    def backward(self, grad_y, *, input_grad=True):
        x = self._cached(self._x)
        if grad_y.shape != (x.shape[0], self.w.shape[1]):
            raise DataError(
                f"dense backward: grad_y shape {grad_y.shape} != {(x.shape[0], self.w.shape[1])}")
        self.gw += x.T @ grad_y
        self.gb += grad_y.sum(axis=0)
        return grad_y @ self.w.T if input_grad else None


class Sequential:
    """A layer chain owning one flat parameter vector and one gradient vector.

    The layers are built first, so their initialisation draws from the RNG
    in layer order; then their weights move into self.params and each layer's
    w/b/gw/gb become views of self.params/self.grads (layout in the module
    docstring). backward only fills self.grads: the first layer, a weighted
    one, skips its input gradient. Subclasses with another wiring (the anchor
    net) keep every layer in self.layers and override only forward/backward.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        named = [(layer, name) for layer in self.layers for name in layer.param_names]
        dtypes = {getattr(layer, name).dtype for layer, name in named}
        if len(dtypes) > 1:
            raise DataError(f"model parameters mix dtypes {sorted(map(str, dtypes))}")
        self.params = np.empty(sum(getattr(layer, name).size for layer, name in named),
                               dtype=dtypes.pop() if dtypes else np.float32)
        self.grads = np.zeros_like(self.params)
        offset = 0
        for layer, name in named:
            value = getattr(layer, name)
            end = offset + value.size
            self.params[offset:end] = value.reshape(-1)
            setattr(layer, name, self.params[offset:end].reshape(value.shape))
            setattr(layer, "g" + name, self.grads[offset:end].reshape(value.shape))
            offset = end

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_y) -> None:
        for layer in reversed(self.layers[1:]):
            grad_y = layer.backward(grad_y)
        self.layers[0].backward(grad_y, input_grad=False)


# --------------------------------------------------------------------------
# training


def fit(model: Sequential, x: np.ndarray, y: np.ndarray, epochs: int, batch_size: int, lr: float,
        rng: np.random.Generator) -> list[float]:
    """Minibatch MSE training with Adam; returns the per-epoch mean loss trace.

    Each epoch visits the rows of x in an order drawn from rng. Raises
    DivergenceError naming the epoch if a gradient or the mean loss goes
    non-finite.
    """
    optim = Adam(model.params, lr=lr)
    trace: list[float] = []
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            loss, grad = mse_loss(model.forward(x[batch]), y[batch])
            model.grads[...] = 0.0
            model.backward(grad)
            try:
                optim.step(model.grads)
            except DivergenceError as exc:
                raise DivergenceError(f"training diverged at epoch {epoch + 1}: {exc}") from exc
            total += loss * len(batch)
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise DivergenceError(f"training diverged at epoch {epoch + 1}")
        trace.append(mean_loss)
    return trace


# --------------------------------------------------------------------------
# checkpoints

MODEL_MAGIC = b"TAPM"
MODEL_VERSION = 1
_KIND_CODES = {"conv1d": 1, "relu": 2, "sigmoid": 3, "dense": 4}


def _spec_table(layers: list[Layer]) -> bytes:
    return b"".join(
        struct.pack("<6I", _KIND_CODES[s.kind], s.in_channels, s.out_channels, s.kernel,
                    s.stride, s.pad)
        for s in (layer.spec for layer in layers)
    )


def save_model(model: Sequential, path: str | Path) -> None:
    """Checkpoint: magic, version, layer-spec table, model.params as float32."""
    with atomic_open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, len(model.layers)))
        f.write(_spec_table(model.layers))
        f.write(model.params.astype("<f4").tobytes())


def load_weights(model: Sequential, path: str | Path) -> Sequential:
    """Fill a model built from config with a checkpoint's parameters.

    The file is checked against the model before any weight is read: its
    layer table must equal the model's layer specs (else ConfigError) and
    its payload must be exactly the model's float32 parameters, all finite
    (else DataError).
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read model checkpoint {path}: {exc}") from exc
    if len(blob) < 12 or blob[:4] != MODEL_MAGIC:
        raise DataError(f"{path}: bad magic, not a model checkpoint")
    version, n_layers = struct.unpack("<II", blob[4:12])
    if version != MODEL_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    offset = 12 + 24 * n_layers
    if offset > len(blob):
        raise DataError(f"{path}: truncated layer table")
    if blob[12:offset] != _spec_table(model.layers):
        raise ConfigError(f"checkpoint {path} does not match the configured architecture")
    expected = 4 * model.params.size
    if len(blob) - offset != expected:
        raise DataError(
            f"{path}: parameter payload has {len(blob) - offset} bytes, the model needs {expected}"
        )
    payload = np.frombuffer(blob, dtype="<f4", offset=offset)
    finite = np.isfinite(payload)
    if not finite.all():
        raise DataError(
            f"{path}: parameter {int(np.argmin(finite))} of the payload is not finite")
    model.params[...] = payload
    return model
