"""Minimal deterministic neural-network engine.

1D convolutions, relu/sigmoid, dense layers, MSE loss, Adam, the one
training loop, a finite-difference gradient checker and checkpoints. Two
numeric modes: float32 for training, float64 for gradient checking. No
threads, no implicit parallelism; a batch is the leading tensor dimension
and every op is pure given (params, input).

Tensor conventions: conv ops take (N, C, T) arrays, dense ops take (N, F).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DivergenceError, ShapeError
from .util import atomic_open

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# --------------------------------------------------------------------------
# functional ops


def conv_output_length(t: int, kernel: int, stride: int, pad: int) -> int:
    return (t + 2 * pad - kernel) // stride + 1


def _unfold(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, T) -> column tensor (N, C, k, T') of sliding windows."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (x.shape[2] - kernel) // stride + 1
    idx = np.arange(kernel)[:, None] + stride * np.arange(t_out)[None, :]
    return x[:, :, idx]


def conv1d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """y[n,o,t] = b[o] + sum_{c,j} w[o,c,j] * x_padded[n,c,t*stride+j]."""
    n, c, t = x.shape
    out_ch, in_ch, kernel = w.shape
    if c != in_ch:
        raise ShapeError(f"conv1d: input has {c} channels, kernel expects {in_ch}")
    t_out = conv_output_length(t, kernel, stride, pad)
    if t_out < 1:
        raise ShapeError(
            f"conv1d: output length {t_out} < 1 for T={t}, k={kernel}, s={stride}, p={pad}"
        )
    cols = _unfold(x, kernel, stride, pad).reshape(n, in_ch * kernel, t_out)
    y = np.matmul(w.reshape(out_ch, in_ch * kernel), cols)
    return y + b[None, :, None]


def conv1d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_y: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_forward w.r.t. input, weights and bias."""
    n, c, t = x.shape
    out_ch, in_ch, kernel = w.shape
    if c != in_ch:
        raise ShapeError(f"conv1d backward: input has {c} channels, kernel expects {in_ch}")
    t_out = conv_output_length(t, kernel, stride, pad)
    if grad_y.shape != (n, out_ch, t_out):
        raise ShapeError(
            f"conv1d backward: grad_y shape {grad_y.shape} != {(n, out_ch, t_out)}"
        )
    cols = _unfold(x, kernel, stride, pad).reshape(n, in_ch * kernel, t_out)

    grad_b = grad_y.sum(axis=(0, 2))
    grad_w = np.einsum("not,nmt->om", grad_y, cols).reshape(out_ch, in_ch, kernel)

    # scatter column gradients back onto the padded input, one tap at a time
    grad_cols = np.matmul(w.reshape(out_ch, in_ch * kernel).T, grad_y)
    grad_cols = grad_cols.reshape(n, in_ch, kernel, t_out)
    grad_xp = np.zeros((n, in_ch, t + 2 * pad), dtype=x.dtype)
    for j in range(kernel):
        grad_xp[:, :, j : j + stride * t_out : stride] += grad_cols[:, :, j, :]
    grad_x = grad_xp[:, :, pad : pad + t] if pad > 0 else grad_xp
    return grad_x, grad_w, grad_b


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    return grad_y * (x > 0.0)


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    # split by sign for overflow-free exp
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid_backward(y: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """Derivative from the forward output: sigma' = y * (1 - y)."""
    return grad_y * y * (1.0 - y)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input shape {x.shape} incompatible with weights {w.shape}")
    return x @ w + b[None, :]


def dense_backward(
    x: np.ndarray, w: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_x = grad_y @ w.T
    grad_w = x.T @ grad_y
    grad_b = grad_y.sum(axis=0)
    return grad_x, grad_w, grad_b


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError("mse: empty tensors")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float = ADAM_LR,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update; returns new (param, m, v) for step t >= 1."""
    if param.shape != grad.shape or m.shape != grad.shape or v.shape != grad.shape:
        raise ShapeError("adam: param/grad/state shapes differ")
    if not np.isfinite(grad).all():
        raise DivergenceError("adam: non-finite gradient")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


class Adam:
    """Owns first/second-moment state for a fixed parameter list."""

    def __init__(self, params, lr=ADAM_LR, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ShapeError("adam: wrong number of gradients")
        self.t += 1
        for i, g in enumerate(grads):
            p, m, v = adam_step(
                self.params[i], g, self.m[i], self.v[i], self.t,
                self.lr, self.beta1, self.beta2, self.eps,
            )
            # update in place so layers keep referring to the same arrays
            self.params[i][...] = p
            self.m[i] = m
            self.v[i] = v


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

    def __post_init__(self) -> None:
        if self.kind == "conv1d" and (self.kernel < 1 or self.stride < 1 or self.pad < 0):
            raise ShapeError(f"bad conv spec: {self}")


class Layer:
    """Forward/backward pair with internally cached activations."""

    spec: LayerSpec

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def zero_grads(self) -> None:
        for g in self.grads():
            g[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv1d(Layer):
    def __init__(self, in_channels, out_channels, kernel, stride=1, pad=0,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.spec = LayerSpec("conv1d", in_channels, out_channels, kernel, stride, pad)
        fan_in = in_channels * kernel
        fan_out = out_channels * kernel
        if rng is None:
            self.w = np.zeros((out_channels, in_channels, kernel), dtype=dtype)
        else:
            self.w = glorot_uniform((out_channels, in_channels, kernel), fan_in, fan_out, rng, dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]

    def forward(self, x):
        self._x = x
        return conv1d_forward(x, self.w, self.b, self.spec.stride, self.spec.pad)

    def backward(self, grad_y):
        grad_x, gw, gb = conv1d_backward(self._x, self.w, grad_y, self.spec.stride, self.spec.pad)
        self.gw += gw
        self.gb += gb
        return grad_x


class ReLU(Layer):
    def __init__(self):
        self.spec = LayerSpec("relu")
        self._x = None

    def forward(self, x):
        self._x = x
        return relu_forward(x)

    def backward(self, grad_y):
        return relu_backward(self._x, grad_y)


class Sigmoid(Layer):
    def __init__(self):
        self.spec = LayerSpec("sigmoid")
        self._y = None

    def forward(self, x):
        self._y = sigmoid_forward(x)
        return self._y

    def backward(self, grad_y):
        return sigmoid_backward(self._y, grad_y)


class Dense(Layer):
    def __init__(self, in_width, out_width, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        self.spec = LayerSpec("dense", in_width, out_width)
        if rng is None:
            self.w = np.zeros((in_width, out_width), dtype=dtype)
        else:
            self.w = glorot_uniform((in_width, out_width), in_width, out_width, rng, dtype)
        self.b = np.zeros(out_width, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]

    def forward(self, x):
        self._x = x
        return dense_forward(x, self.w, self.b)

    def backward(self, grad_y):
        grad_x, gw, gb = dense_backward(self._x, self.w, grad_y)
        self.gw += gw
        self.gb += gb
        return grad_x


class Sequential:
    """A layer chain. Subclasses with another wiring (the anchor net) keep
    every layer in self.layers and override only forward/backward."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_y):
        for layer in reversed(self.layers):
            grad_y = layer.backward(grad_y)
        return grad_y


# --------------------------------------------------------------------------
# training


def fit(model: Sequential, x: np.ndarray, y: np.ndarray, epochs: int, batch_size: int, lr: float,
        rng: np.random.Generator) -> list[float]:
    """Minibatch MSE training with Adam; returns the per-epoch mean loss trace.

    Each epoch visits the rows of x in an order drawn from rng. Raises
    DivergenceError naming the epoch if the mean loss goes non-finite.
    """
    optim = Adam(model.params(), lr=lr)
    trace: list[float] = []
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            loss, grad = mse_loss(model.forward(x[batch]), y[batch])
            model.zero_grads()
            model.backward(grad)
            optim.step(model.grads())
            total += loss * len(batch)
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise DivergenceError(f"training diverged at epoch {epoch + 1}")
        trace.append(mean_loss)
    return trace


# --------------------------------------------------------------------------
# gradient checking


def relu_margin(model: Sequential, x: np.ndarray) -> float:
    """Smallest |input| of any ReLU in model.layers on a forward pass of x."""
    model.forward(x)
    return min((float(np.abs(layer._x).min()) for layer in model.layers
                if isinstance(layer, ReLU) and layer._x.size), default=math.inf)


def grad_check(model, x: np.ndarray, loss_fn, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps the model output to (scalar loss, grad w.r.t. output). Every
    parameter entry is perturbed, so keep the model small. Run models in
    float64; float32 rounding drowns the finite differences.
    """
    model.zero_grads()
    y = model.forward(x)
    _, grad_y = loss_fn(y)
    model.backward(grad_y)

    analytic = [g.copy() for g in model.grads()]
    worst = 0.0
    for p, g_analytic in zip(model.params(), analytic):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lo_plus, _ = loss_fn(model.forward(x))
            flat[i] = orig - eps
            lo_minus, _ = loss_fn(model.forward(x))
            flat[i] = orig
            numeric = (lo_plus - lo_minus) / (2.0 * eps)
            a = float(g_analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst


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


def save_model(layers: list[Layer], path: str | Path) -> None:
    """Checkpoint: magic, version, layer-spec table, float32 params in order."""
    with atomic_open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, len(layers)))
        f.write(_spec_table(layers))
        for layer in layers:
            for p in layer.params():
                f.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def load_weights(model: Sequential, path: str | Path) -> Sequential:
    """Fill a model built from config with a checkpoint's parameters.

    The file is checked against the model before any weight is read: its
    layer table must equal the model's layer specs (else ConfigError) and
    its payload must be exactly the model's float32 parameters (else
    DataFormatError).
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read model checkpoint {path}: {exc}") from exc
    if len(blob) < 12 or blob[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a model checkpoint")
    version, n_layers = struct.unpack("<II", blob[4:12])
    if version != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 12 + 24 * n_layers
    if offset > len(blob):
        raise DataFormatError(f"{path}: truncated layer table")
    if blob[12:offset] != _spec_table(model.layers):
        raise ConfigError(f"checkpoint {path} does not match the configured architecture")
    params = model.params()
    expected = 4 * sum(p.size for p in params)
    if len(blob) - offset != expected:
        raise DataFormatError(
            f"{path}: parameter payload has {len(blob) - offset} bytes, the model needs {expected}"
        )
    for p in params:
        p[...] = np.frombuffer(blob, dtype="<f4", count=p.size, offset=offset).reshape(p.shape)
        offset += 4 * p.size
    return model
