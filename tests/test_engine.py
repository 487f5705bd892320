import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracles import (
    brute_conv1d,
    grad_check,
    masked_sigmoid,
    per_array_adam,
    per_array_checkpoint,
)

from tapkit.engine import (
    Adam,
    Conv1d,
    Dense,
    ReLU,
    Sequential,
    Sigmoid,
    conv_output_length,
    fit,
    load_weights,
    mse_loss,
    save_model,
)
from tapkit.errors import ConfigError, DataError, DivergenceError
from tapkit.ssad import SsadConfig, SsadModel
from tapkit.tag import TagConfig, build_mlp


def _conv(w, b, stride=1, pad=0):
    """A standalone Conv1d holding w and b (not copies), with zero gradients."""
    out_ch, in_ch, kernel = w.shape
    layer = Conv1d(in_ch, out_ch, kernel, stride, pad, rng=np.random.default_rng(0))
    layer.w, layer.b = w, b
    layer.gw, layer.gb = np.zeros_like(w), np.zeros_like(b)
    return layer


def test_conv_output_length():
    assert conv_output_length(10, 3, 1, 1) == 10
    assert conv_output_length(10, 3, 2, 1) == 5
    assert conv_output_length(3, 3, 1, 0) == 1
    assert conv_output_length(3, 1, 2, 0) == 2


class TestConv1d:
    def test_valid_convolution_by_hand(self):
        x = np.array([[[1.0, 2.0, 3.0]]])          # (N=1, C=1, L=3)
        w = np.array([[[1.0, 0.0, -1.0]]])          # (O=1, C=1, K=3)
        b = np.zeros(1)
        y = _conv(w, b, stride=1, pad=0).forward(x)
        assert y.shape == (1, 1, 1)
        assert y[0, 0, 0] == 1.0 * 1 + 2.0 * 0 + 3.0 * (-1)  # -2

    def test_stride_two_kernel_one(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0]]])
        y = _conv(w, np.zeros(1), stride=2, pad=0).forward(x)
        assert y[0, 0].tolist() == [1.0, 3.0]

    def test_same_padding_identity_kernel(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[0.0, 1.0, 0.0]]])
        y = _conv(w, np.zeros(1), stride=1, pad=1).forward(x)
        assert y[0, 0].tolist() == [1.0, 2.0, 3.0]

    def test_bias_added(self):
        x = np.zeros((1, 1, 4))
        w = np.zeros((2, 1, 1))
        y = _conv(w, np.array([0.5, -1.0]), stride=1, pad=0).forward(x)
        assert np.all(y[0, 0] == 0.5) and np.all(y[0, 1] == -1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="input has 2 channels, kernel expects 3"):
            _conv(np.zeros((1, 3, 3)), np.zeros(1), 1, 1).forward(np.zeros((1, 2, 8)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = Conv1d(2, 3, 3, stride=2, pad=1, rng=rng, dtype=np.float64)
        model = Sequential([layer])
        x = rng.standard_normal((2, 2, 8))
        target = rng.standard_normal((2, 3, 4))
        err = grad_check(model, x, lambda y: mse_loss(y, target))
        assert err < 1e-6

    def test_grad_y_shape_checked(self):
        layer = Conv1d(2, 3, 3, pad=1, rng=np.random.default_rng(0))
        layer.forward(np.ones((1, 2, 8), dtype=np.float32))
        for shape in [(1, 3, 7), (2, 3, 8), (1, 2, 8), (3, 8)]:
            with pytest.raises(DataError, match="grad_y shape"):
                layer.backward(np.ones(shape, dtype=np.float32))
        assert not layer.gw.any() and not layer.gb.any()

    def test_backward_uses_latest_forward(self):
        rng = np.random.default_rng(8)
        layer = Conv1d(2, 3, 3, stride=2, pad=1, rng=rng)
        first = rng.standard_normal((2, 2, 8)).astype(np.float32)
        latest = rng.standard_normal((2, 2, 8)).astype(np.float32)
        grad_y = rng.standard_normal((2, 3, 4)).astype(np.float32)
        layer.forward(first)
        layer.forward(latest)
        grad_x = layer.backward(grad_y)
        want = _reference_backward(latest, layer.w, grad_y, 2, 1)
        _assert_same_bits((grad_x, layer.gw, layer.gb), want)
        stale = _reference_backward(first, layer.w, grad_y, 2, 1)
        assert not np.array_equal(layer.gw, stale[1])


@st.composite
def _conv_case(draw):
    kernel = draw(st.integers(1, 9))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, kernel))
    t_min = max(1, kernel - 2 * pad)  # the shortest input with one output
    return (draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3)), kernel,
            stride, pad, draw(st.integers(t_min, t_min + 12)), draw(st.integers(0, 2**32 - 1)))


class TestConvOracle:
    """Conv1d forward/backward against brute_conv1d's loops, in float64."""

    # (N, C, O, kernel, stride, pad, T, seed): one input channel, stride past
    # the kernel, and a single output position
    @example(case=(2, 1, 2, 3, 1, 1, 5, 0))
    @example(case=(1, 2, 2, 1, 3, 0, 10, 1))
    @example(case=(2, 2, 1, 2, 3, 1, 4, 2))
    @example(case=(1, 2, 3, 9, 2, 0, 9, 3))
    @example(case=(2, 1, 1, 5, 3, 5, 1, 4))
    @settings(max_examples=200, deadline=None)
    @given(case=_conv_case())
    def test_matches_brute_force(self, case):
        n, c, o, kernel, stride, pad, t, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, t))
        w = rng.standard_normal((o, c, kernel))
        b = rng.standard_normal(o)
        layer = _conv(w, b, stride, pad)
        y = layer.forward(x)
        grad_y = rng.standard_normal(y.shape)
        got = (y, layer.backward(grad_y), layer.gw, layer.gb)
        want = brute_conv1d(x, w, b, stride, pad, grad_y)
        for name, g, e in zip(("y", "grad_x", "grad_w", "grad_b"), got, want):
            assert g.shape == e.shape, name
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12, err_msg=name)


# Reference: conv1d on a fancy-index unfold (np.pad, x[:, :, idx], then a
# reshape copy). Its forward matmul, batched grad_w matmul and grad_x scatter
# are the engine's, so the tap-by-tap columns must give the same bits.


def _reference_unfold(x, kernel, stride, pad):
    n, c, _ = x.shape
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (x.shape[2] - kernel) // stride + 1
    idx = np.arange(kernel)[:, None] + stride * np.arange(t_out)[None, :]
    return x[:, :, idx].reshape(n, c * kernel, t_out)


def _reference_forward(x, w, b, stride, pad):
    out_ch, in_ch, kernel = w.shape
    cols = _reference_unfold(x, kernel, stride, pad)
    return np.matmul(w.reshape(out_ch, in_ch * kernel), cols) + b[None, :, None]


def _reference_backward(x, w, grad_y, stride, pad):
    n, _, t = x.shape
    out_ch, in_ch, kernel = w.shape
    t_out = grad_y.shape[2]
    cols = _reference_unfold(x, kernel, stride, pad)
    grad_b = grad_y.sum(axis=(0, 2))
    grad_w = np.matmul(grad_y, cols.transpose(0, 2, 1)).sum(0).reshape(out_ch, in_ch, kernel)
    grad_cols = np.matmul(w.reshape(out_ch, in_ch * kernel).T, grad_y)
    grad_cols = grad_cols.reshape(n, in_ch, kernel, t_out)
    grad_xp = np.zeros((n, in_ch, t + 2 * pad), dtype=x.dtype)
    for j in range(kernel):
        grad_xp[:, :, j : j + stride * t_out : stride] += grad_cols[:, :, j, :]
    return grad_xp[:, :, pad : pad + t] if pad > 0 else grad_xp, grad_w, grad_b


def _assert_same_bits(got, want, where=""):
    for name, g, e in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert g.dtype == e.dtype and g.shape == e.shape, (where, name)
        assert np.array_equal(g, e) and g.tobytes() == e.tobytes(), (where, name)


class TestColumnsBitwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ssad_shapes(self, dtype):
        # every conv of the default anchor net at training batch size: the
        # stem, the eight stride-2 down blocks and the seven heads
        rng = np.random.default_rng(9)
        model = SsadModel(16, SsadConfig(), 9, dtype=dtype)
        model.forward(rng.standard_normal((8, 16, 256)).astype(dtype))
        convs = [layer for layer in model.layers if isinstance(layer, Conv1d)]
        assert len(convs) == 16
        for i, layer in enumerate(convs):
            x, w, b = layer._x, layer.w, layer.b
            s, p = layer.spec.stride, layer.spec.pad
            where = f"conv {i}, x {x.shape}, w {w.shape}"
            fresh = _conv(w, b, s, p)
            y = fresh.forward(x)
            want_y = _reference_forward(x, w, b, s, p)
            assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes(), where
            assert np.array_equal(y, want_y), where
            assert fresh._cols.flags.c_contiguous, where
            grad_y = rng.standard_normal(y.shape).astype(dtype)
            grad_x = fresh.backward(grad_y)
            _assert_same_bits((grad_x, fresh.gw, fresh.gb),
                              _reference_backward(x, w, grad_y, s, p), where)
            # the weight half alone: no input gradient, the same gw and gb
            half = _conv(w, b, s, p)
            half.forward(x)
            assert half.backward(grad_y, input_grad=False) is None, where
            assert half.gw.tobytes() == fresh.gw.tobytes(), where
            assert half.gb.tobytes() == fresh.gb.tobytes(), where


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_weight_half_matches_full_path(dtype):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((8, 16)).astype(dtype)
    grad_y = rng.standard_normal((8, 32)).astype(dtype)
    full, half = (Dense(16, 32, rng=np.random.default_rng(4), dtype=dtype) for _ in range(2))
    full.forward(x)
    half.forward(x)
    grad_x = full.backward(grad_y)
    assert grad_x.shape == x.shape and grad_x.tobytes() == (grad_y @ full.w.T).tobytes()
    assert half.backward(grad_y, input_grad=False) is None
    assert half.gw.tobytes() == full.gw.tobytes() and half.gb.tobytes() == full.gb.tobytes()


def test_grad_w_float32_matches_float64_on_ssad_shapes(monkeypatch):
    # Every conv of the default anchor net at training batch size, against a
    # float64 oracle computed apart from the engine. np.einsum raises: its
    # loop does not run on BLAS and is about 5x slower on these shapes.
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: pytest.fail("np.einsum called"))
    rng = np.random.default_rng(11)
    model = SsadModel(16, SsadConfig(), 11)
    model.forward(rng.standard_normal((8, 16, 256)).astype(np.float32))
    convs = [layer for layer in model.layers if isinstance(layer, Conv1d)]
    assert len(convs) == 16
    for i, layer in enumerate(convs):
        x, w, s, p = layer._x, layer.w, layer.spec.stride, layer.spec.pad
        fresh = _conv(w, layer.b, s, p)
        y = fresh.forward(x)
        grad_y = rng.standard_normal(y.shape).astype(np.float32)
        fresh.backward(grad_y)
        grad_w, cols = fresh.gw, fresh._cols
        want = np.tensordot(grad_y.astype(np.float64), cols.astype(np.float64), ([0, 2], [0, 2]))
        assert grad_w.dtype == np.float32, i
        rel = np.abs(grad_w - want.reshape(w.shape)).max() / np.abs(want).max()
        assert rel < 1e-5, f"conv {i}, x {x.shape}, w {w.shape}: relative error {rel:.2e}"


@pytest.mark.parametrize("make, grad_shape", [
    (lambda: Conv1d(2, 3, 3, pad=1, rng=np.random.default_rng(0)), (2, 3, 4)),
    (lambda: Dense(4, 3, rng=np.random.default_rng(0)), (2, 3, 4)),
    (ReLU, (2, 3, 4)),
    (Sigmoid, (2, 3, 4)),
    (lambda: Sequential([Conv1d(2, 3, 3, pad=1, rng=np.random.default_rng(0)), ReLU()]),
     (2, 3, 4)),
    # a gradient of the right width, so that forward is the only thing missing
    (lambda: SsadModel(4, SsadConfig(input_length=16, hidden_channels=4), 0), (2, 21)),
], ids=["conv1d", "dense", "relu", "sigmoid", "sequential", "ssad"])
def test_backward_before_forward(make, grad_shape):
    with pytest.raises(DataError, match="backward called before forward"):
        make().backward(np.ones(grad_shape))


@pytest.mark.parametrize("make, x_shape, grad_shape", [
    (lambda: SsadModel(16, SsadConfig(input_length=16, hidden_channels=4), 0),
     (2, 16, 16), (1, 21)),
    (lambda: Sequential([Dense(4, 3, rng=np.random.default_rng(0)), ReLU(),
                         Dense(3, 1, rng=np.random.default_rng(1)), Sigmoid()]), (2, 4), (1, 1)),
], ids=["ssad", "tag"])
def test_gradient_of_another_batch_rejected(make, x_shape, grad_shape):
    # a batch-1 gradient after a batch-2 forward must not broadcast through
    # the final activation into the weight gradients
    model = make()
    model.forward(np.random.default_rng(2).standard_normal(x_shape).astype(np.float32))
    with pytest.raises(DataError, match="grad_y shape"):
        model.backward(np.ones(grad_shape, dtype=np.float32))
    assert np.count_nonzero(model.grads) == 0


@pytest.mark.parametrize("layer", [ReLU, Sigmoid])
def test_activation_grad_shape_checked(layer):
    act = layer()
    act.forward(np.ones((2, 3)))
    with pytest.raises(DataError, match=r"grad_y shape \(1, 3\) != \(2, 3\)"):
        act.backward(np.ones((1, 3)))


@pytest.mark.parametrize("grad_shape", [(1, 3), (2, 5)], ids=["batch", "width"])
def test_dense_grad_shape_checked(grad_shape):
    dense = Dense(4, 3, rng=np.random.default_rng(0))
    dense.forward(np.ones((2, 4), dtype=np.float32))
    with pytest.raises(DataError, match=rf"grad_y shape \({grad_shape[0]}, {grad_shape[1]}\) "
                                         r"!= \(2, 3\)"):
        dense.backward(np.ones(grad_shape, dtype=np.float32))
    assert np.count_nonzero(dense.gw) == 0 and np.count_nonzero(dense.gb) == 0


def _sigmoid_inputs(dtype):
    """Random values, some large enough that exp(-|x|) underflows to 0, the
    special values, and inputs x whose exp(x) or exp(-x) is subnormal."""
    rng = np.random.default_rng(12)
    tiny = np.finfo(dtype).tiny
    # exp(x) is subnormal for log(smallest subnormal) < x < log(tiny)
    sub_lo, sub_hi = np.log(np.finfo(dtype).smallest_subnormal), np.log(tiny)
    subnormal = rng.uniform(float(sub_lo), float(sub_hi), 200)
    assert (np.exp(subnormal.astype(dtype)) < tiny).all()
    values = np.concatenate([
        rng.standard_normal(1001) * 8.0,
        rng.uniform(-800.0, 800.0, 1001),
        subnormal, -subnormal,
        [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan],
    ])
    return rng.permutation(values).astype(dtype)


def _assert_same_bits_or_both_nan(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestActivations:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_masked_reference(self, dtype):
        x = _sigmoid_inputs(dtype)
        with np.errstate(over="raise"):
            for view in (x, x[1:], x[::3], x[: x.size // 3 * 3].reshape(-1, 3)[:, :2]):
                _assert_same_bits_or_both_nan(Sigmoid().forward(view), masked_sigmoid(view))

    def test_sigmoid_values(self):
        assert Sigmoid().forward(np.array([0.0]))[0] == 0.5
        # large magnitudes must not overflow
        out = Sigmoid().forward(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_derivative_at_zero(self):
        layer = Sigmoid()
        layer.forward(np.array([0.0]))
        assert layer.backward(np.ones(1))[0] == 0.25

    def test_relu(self):
        layer = ReLU()
        assert layer.forward(np.array([-2.0, 0.0, 3.0])).tolist() == [0.0, 0.0, 3.0]
        assert layer.backward(np.ones(3)).tolist() == [0.0, 0.0, 1.0]


class TestMse:
    def test_by_hand(self):
        loss, grad = mse_loss(np.array([1.0]), np.array([0.0]))
        assert loss == 1.0
        assert grad.tolist() == [2.0]

    def test_mean_over_all_entries(self):
        loss, _ = mse_loss(np.array([1.0, 1.0, 1.0, 1.0]), np.zeros(4))
        assert loss == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"mse: shapes differ, \(3,\) vs \(4,\)"):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(DataError, match="mse: empty tensors"):
            mse_loss(np.zeros(0), np.zeros(0))


class TestAdam:
    def test_descends_quadratic(self):
        # minimize (p - 3)^2 from 0; a few hundred steps get close
        p = np.zeros(1)
        opt = Adam(p, lr=0.05)
        for _ in range(500):
            opt.step(2.0 * (p - 3.0))
        assert abs(p[0] - 3.0) < 1e-2

    def test_non_finite_gradient_raises(self):
        with pytest.raises(DivergenceError):
            Adam(np.zeros(1), lr=1e-3).step(np.array([np.nan]))

    def test_wrong_gradient_count(self):
        # one gradient vector shaped like the parameter vector, nothing else
        opt = Adam(np.zeros(2), lr=1e-3)
        for shape in [(3,), (1, 2), (2, 1), ()]:
            with pytest.raises(DataError, match="shape"):
                opt.step(np.zeros(shape))
        assert opt.t == 0

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        p = np.array([1.0])
        opt = Adam(p, lr=0.01)
        opt.step(np.array([123.0]))
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


class TestFit:
    def test_non_finite_gradient_names_the_epoch(self):
        r = np.random.default_rng(0)
        x = r.standard_normal((8, 3)).astype(np.float32)
        x[5, 1] = np.nan
        y = r.uniform(0, 1, size=(8, 1)).astype(np.float32)
        model = Sequential([Dense(3, 4, rng=r), ReLU(), Dense(4, 1, rng=r), Sigmoid()])
        with pytest.raises(DivergenceError, match="epoch 1"):
            fit(model, x, y, 3, 4, 1e-3, r)


class TestGradCheck:
    def test_conv_stack(self):
        rng = np.random.default_rng(1)
        model = Sequential([
            Conv1d(2, 4, 3, stride=1, pad=1, rng=rng, dtype=np.float64),
            ReLU(),
            Conv1d(4, 2, 3, stride=2, pad=1, rng=rng, dtype=np.float64),
            Sigmoid(),
        ])
        x = rng.standard_normal((2, 2, 8))
        target = rng.uniform(0, 1, size=(2, 2, 4))
        assert grad_check(model, x, lambda y: mse_loss(y, target)) < 1e-4

    def test_dense_stack(self):
        rng = np.random.default_rng(2)
        model = Sequential([
            Dense(5, 7, rng=rng, dtype=np.float64),
            ReLU(),
            Dense(7, 2, rng=rng, dtype=np.float64),
            Sigmoid(),
        ])
        x = rng.standard_normal((6, 5))
        target = rng.uniform(0, 1, size=(6, 2))
        assert grad_check(model, x, lambda y: mse_loss(y, target)) < 1e-4


class TestCheckpoints:
    @staticmethod
    def _model(seed):
        rng = np.random.default_rng(seed)
        return Sequential([
            Conv1d(3, 4, 5, stride=1, pad=2, rng=rng),
            ReLU(),
            Conv1d(4, 2, 3, stride=2, pad=1, rng=rng),
            Sigmoid(),
        ])

    def test_round_trip(self, tmp_path):
        model = self._model(3)
        path = tmp_path / "m.tapm"
        save_model(model, path)
        loaded = load_weights(self._model(0), path)
        assert [l.spec for l in loaded.layers] == [l.spec for l in model.layers]
        assert np.array_equal(loaded.params, model.params)

    def test_loaded_model_same_outputs(self, tmp_path):
        model = self._model(4)
        path = tmp_path / "m.tapm"
        save_model(model, path)
        loaded = load_weights(self._model(0), path)
        x = np.random.default_rng(4).standard_normal((1, 3, 8)).astype(np.float32)
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.tapm"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(DataError, match="magic"):
            load_weights(self._model(0), path)

    def test_truncated_table(self, tmp_path):
        import struct

        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 1, 3) + b"\0" * 8)
        with pytest.raises(DataError, match="truncated layer table"):
            load_weights(self._model(0), path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 99, 0))
        with pytest.raises(DataError, match="version"):
            load_weights(self._model(0), path)

    def test_other_architecture_rejected_before_payload(self, tmp_path):
        # one conv1d spec with 0xFFFFFFFF channels and kernel, and no payload
        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 1, 1)
                         + struct.pack("<6I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 1, 0))
        with pytest.raises(ConfigError, match="architecture"):
            load_weights(self._model(0), path)

    @pytest.mark.parametrize("edit", [lambda b: b[:-4], lambda b: b + b"\0\0\0\0"],
                             ids=["short", "long"])
    def test_payload_length_must_match(self, tmp_path, edit):
        path = tmp_path / "m.tapm"
        save_model(self._model(5), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match="payload"):
            load_weights(self._model(0), path)


# the default anchor net and actionness MLP, initialised from a seed
_DEFAULT_MODELS = {
    "ssad": lambda seed: SsadModel(16, SsadConfig(), seed),
    "mlp": lambda seed: build_mlp(16, TagConfig(), seed),
}
# an input batch for each of them
_DEFAULT_INPUT_SHAPES = {"ssad": (2, 16, 256), "mlp": (5, 16)}


def _param_arrays(model, prefix=""):
    return [getattr(layer, prefix + name) for layer in model.layers for name in layer.param_names]


def _assert_flat_layout(model):
    """Every w/b (gw/gb) is a C-contiguous view of model.params (model.grads)
    at increasing offsets in model.layers order, together covering it."""
    for prefix, flat in (("", model.params), ("g", model.grads)):
        base = flat.__array_interface__["data"][0]
        offset = 0
        for view in _param_arrays(model, prefix):
            assert np.shares_memory(view, flat) and view.flags.c_contiguous
            assert view.dtype == flat.dtype
            assert view.__array_interface__["data"][0] - base == offset * flat.itemsize
            offset += view.size
        assert offset == flat.size


class TestModelBackward:
    @pytest.mark.parametrize("make", sorted(_DEFAULT_MODELS))
    def test_first_layer_runs_only_its_weight_half(self, make):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(_DEFAULT_INPUT_SHAPES[make]).astype(np.float32)
        skip, full = _DEFAULT_MODELS[make](3), _DEFAULT_MODELS[make](3)
        # random weights everywhere: build_mlp's output layer starts at zero,
        # which would zero every other gradient of the MLP
        params = 0.3 * rng.standard_normal(skip.params.size).astype(np.float32)
        skip.params[...] = params
        full.params[...] = params

        calls = []
        first = skip.layers[0].backward

        def spy(grad_y, **kwargs):
            calls.append(kwargs)
            return first(grad_y, **kwargs)

        skip.layers[0].backward = spy
        for layer in full.layers:  # every layer's full path, whatever it is asked
            layer.backward = (lambda f: lambda grad_y, **kwargs: f(grad_y))(layer.backward)

        grad_y = rng.standard_normal(skip.forward(x).shape).astype(np.float32)
        full.forward(x)
        assert skip.backward(grad_y) is None
        full.backward(grad_y)
        assert calls == [{"input_grad": False}]
        assert skip.layers[0].gw.any() and skip.layers[0].gb.any()
        assert skip.grads.tobytes() == full.grads.tobytes()


class TestFlatParams:
    @pytest.mark.parametrize("make", sorted(_DEFAULT_MODELS))
    def test_layers_are_views_in_layer_order(self, make):
        model = _DEFAULT_MODELS[make](3)
        weighted = [layer for layer in model.layers if isinstance(layer, (Conv1d, Dense))]
        assert len(_param_arrays(model)) == 2 * len(weighted)
        assert model.params.dtype == np.float32 and model.grads.shape == model.params.shape
        _assert_flat_layout(model)

    @pytest.mark.parametrize("make", sorted(_DEFAULT_MODELS))
    def test_views_survive_load_weights(self, tmp_path, make):
        model = _DEFAULT_MODELS[make](3)
        path = tmp_path / "m.tapm"
        save_model(model, path)
        loaded = load_weights(_DEFAULT_MODELS[make](4), path)
        assert np.array_equal(loaded.params, model.params)
        _assert_flat_layout(loaded)

    @pytest.mark.parametrize("make", sorted(_DEFAULT_MODELS))
    def test_reload_does_not_depend_on_the_construction_seed(self, tmp_path, make):
        # a net is built from a seed, random init included, before its weights load
        saved = _DEFAULT_MODELS[make](3)
        path = tmp_path / "m.tapm"
        save_model(saved, path)
        a, b = _DEFAULT_MODELS[make](4), _DEFAULT_MODELS[make](5)
        assert a.params.tobytes() != b.params.tobytes()
        load_weights(a, path)
        load_weights(b, path)
        assert a.params.tobytes() == b.params.tobytes()
        x = np.random.default_rng(6).standard_normal(_DEFAULT_INPUT_SHAPES[make]).astype(np.float32)
        want = saved.forward(x).tobytes()
        assert a.forward(x).tobytes() == want and b.forward(x).tobytes() == want

    @pytest.mark.parametrize("make", sorted(_DEFAULT_MODELS))
    def test_checkpoint_equals_per_array_writer(self, tmp_path, make):
        model = _DEFAULT_MODELS[make](3)
        save_model(model, tmp_path / "m.tapm")
        assert (tmp_path / "m.tapm").read_bytes() == per_array_checkpoint(model.layers)

    def test_init_weights_are_copied_in_order(self):
        rng = np.random.default_rng(11)
        layers = [Conv1d(3, 4, 5, pad=2, rng=rng), ReLU(), Dense(4, 2, rng=rng)]
        layers[0].b[...] = [1.0, 2.0, 3.0, 4.0]
        before = [getattr(layer, name).copy() for layer in layers for name in layer.param_names]
        model = Sequential(layers)
        assert model.params.tobytes() == b"".join(a.tobytes() for a in before)
        assert not model.grads.any()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(DataError, match="dtype"):
            Sequential([Dense(2, 3, rng=np.random.default_rng(0), dtype=np.float32),
                        Dense(3, 1, rng=np.random.default_rng(1), dtype=np.float64)])

    def test_adam_matches_per_array_reference(self):
        # elementwise float32 ops do not depend on how the parameters are split
        model = _DEFAULT_MODELS["ssad"](3)
        reference = [a.copy() for a in _param_arrays(model)]
        shapes = [a.shape for a in reference]
        ends = np.cumsum([a.size for a in reference])[:-1]
        rng = np.random.default_rng(12)
        steps = [rng.standard_normal(model.params.size).astype(np.float32) for _ in range(5)]
        opt = Adam(model.params, lr=1e-3)
        for grad in steps:
            opt.step(grad)
        per_array_adam(reference, [[part.reshape(shape) for part, shape in
                                    zip(np.split(grad, ends), shapes)] for grad in steps])
        assert model.params.tobytes() == b"".join(a.tobytes() for a in reference)
        _assert_flat_layout(model)  # the update reached the layers' views


@st.composite
def _checkpoint_bytes(draw):
    """Arbitrary bytes, or a valid checkpoint with cuts and byte flips."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    blob = bytearray(draw(st.sampled_from(_VALID_CHECKPOINTS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(blob) - 1))
        if draw(st.booleans()):
            del blob[i:]
        else:
            blob[i] = draw(st.integers(0, 255))
        if not blob:
            break
    return bytes(blob)


def _valid_checkpoint(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tapm"
        save_model(model, path)
        return path.read_bytes()


_VALID_CHECKPOINTS = [
    _valid_checkpoint(TestCheckpoints._model(6)),
    _valid_checkpoint(Sequential([Dense(3, 4, rng=np.random.default_rng(7)), Sigmoid()])),
]


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=_checkpoint_bytes())
    def test_bytes_load_or_raise(self, tmp_path, blob):
        path = tmp_path / "m.tapm"
        path.write_bytes(blob)
        model = TestCheckpoints._model(0)
        try:
            assert load_weights(model, path) is model
        except (ConfigError, DataError):
            pass
