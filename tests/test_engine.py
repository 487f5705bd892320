import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tapkit.cli import DATA_ERRORS
from tapkit.engine import (
    Adam,
    Conv1d,
    Dense,
    ReLU,
    Sequential,
    Sigmoid,
    adam_step,
    conv1d_forward,
    conv_output_length,
    grad_check,
    load_weights,
    mse_loss,
    relu_backward,
    relu_forward,
    save_model,
    sigmoid_backward,
    sigmoid_forward,
)
from tapkit.errors import ConfigError, DataFormatError, DivergenceError, ShapeError


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
        y = conv1d_forward(x, w, b, stride=1, pad=0)
        assert y.shape == (1, 1, 1)
        assert y[0, 0, 0] == 1.0 * 1 + 2.0 * 0 + 3.0 * (-1)  # -2

    def test_stride_two_kernel_one(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0]]])
        y = conv1d_forward(x, w, np.zeros(1), stride=2, pad=0)
        assert y[0, 0].tolist() == [1.0, 3.0]

    def test_same_padding_identity_kernel(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[0.0, 1.0, 0.0]]])
        y = conv1d_forward(x, w, np.zeros(1), stride=1, pad=1)
        assert y[0, 0].tolist() == [1.0, 2.0, 3.0]

    def test_bias_added(self):
        x = np.zeros((1, 1, 4))
        w = np.zeros((2, 1, 1))
        y = conv1d_forward(x, w, np.array([0.5, -1.0]), stride=1, pad=0)
        assert np.all(y[0, 0] == 0.5) and np.all(y[0, 1] == -1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((1, 2, 8)), np.zeros((1, 3, 3)), np.zeros(1), 1, 1)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = Conv1d(2, 3, 3, stride=2, pad=1, rng=rng, dtype=np.float64)
        model = Sequential([layer])
        x = rng.standard_normal((2, 2, 8))
        target = rng.standard_normal((2, 3, 4))
        err = grad_check(model, x, lambda y: mse_loss(y, target))
        assert err < 1e-6


class TestActivations:
    def test_sigmoid_values(self):
        assert sigmoid_forward(np.array([0.0]))[0] == 0.5
        # large magnitudes must not overflow
        out = sigmoid_forward(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_derivative_at_zero(self):
        y = sigmoid_forward(np.array([0.0]))
        assert sigmoid_backward(y, np.ones(1))[0] == 0.25

    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert relu_forward(x).tolist() == [0.0, 0.0, 3.0]
        assert relu_backward(x, np.ones(3)).tolist() == [0.0, 0.0, 1.0]


class TestMse:
    def test_by_hand(self):
        loss, grad = mse_loss(np.array([1.0]), np.array([0.0]))
        assert loss == 1.0
        assert grad.tolist() == [2.0]

    def test_mean_over_all_entries(self):
        loss, _ = mse_loss(np.array([1.0, 1.0, 1.0, 1.0]), np.zeros(4))
        assert loss == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros(0), np.zeros(0))


class TestAdam:
    def test_descends_quadratic(self):
        # minimize (p - 3)^2 from 0; a few hundred steps get close
        p = np.zeros(1)
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.step([2.0 * (p - 3.0)])
        assert abs(p[0] - 3.0) < 1e-2

    def test_non_finite_gradient_raises(self):
        with pytest.raises(DivergenceError):
            adam_step(np.zeros(1), np.array([np.nan]), np.zeros(1), np.zeros(1), 1)

    def test_wrong_gradient_count(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(ShapeError):
            opt.step([np.zeros(2), np.zeros(2)])

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        p = np.array([1.0])
        opt = Adam([p], lr=0.01)
        opt.step([np.array([123.0])])
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


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
    def _model(self, rng):
        return Sequential([
            Conv1d(3, 4, 5, stride=1, pad=2, rng=rng),
            ReLU(),
            Conv1d(4, 2, 3, stride=2, pad=1, rng=rng),
            Sigmoid(),
        ])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        model = self._model(rng)
        path = tmp_path / "m.tapm"
        save_model(model.layers, path)
        loaded = load_weights(self._model(None), path)
        assert [l.spec for l in loaded.layers] == [l.spec for l in model.layers]
        for a, b in zip(loaded.layers, model.layers):
            for pa, pb in zip(a.params(), b.params()):
                assert np.array_equal(pa, pb)

    def test_loaded_model_same_outputs(self, tmp_path):
        rng = np.random.default_rng(4)
        model = self._model(rng)
        path = tmp_path / "m.tapm"
        save_model(model.layers, path)
        loaded = load_weights(self._model(None), path)
        x = rng.standard_normal((1, 3, 8)).astype(np.float32)
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.tapm"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_weights(self._model(None), path)

    def test_truncated_table(self, tmp_path):
        import struct

        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 1, 3) + b"\0" * 8)
        with pytest.raises(DataFormatError):
            load_weights(self._model(None), path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 99, 0))
        with pytest.raises(DataFormatError, match="version"):
            load_weights(self._model(None), path)

    def test_other_architecture_rejected_before_payload(self, tmp_path):
        # one conv1d spec with 0xFFFFFFFF channels and kernel, and no payload
        path = tmp_path / "m.tapm"
        path.write_bytes(b"TAPM" + struct.pack("<II", 1, 1)
                         + struct.pack("<6I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 1, 0))
        with pytest.raises(ConfigError, match="architecture"):
            load_weights(self._model(None), path)

    @pytest.mark.parametrize("edit", [lambda b: b[:-4], lambda b: b + b"\0\0\0\0"],
                             ids=["short", "long"])
    def test_payload_length_must_match(self, tmp_path, edit):
        path = tmp_path / "m.tapm"
        save_model(self._model(np.random.default_rng(5)).layers, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataFormatError, match="payload"):
            load_weights(self._model(None), path)


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
        save_model(model.layers, path)
        return path.read_bytes()


_VALID_CHECKPOINTS = [
    _valid_checkpoint(TestCheckpoints()._model(np.random.default_rng(6))),
    _valid_checkpoint(Sequential([Dense(3, 4, rng=np.random.default_rng(7)), Sigmoid()])),
]


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=_checkpoint_bytes())
    def test_bytes_load_or_raise(self, tmp_path, blob):
        path = tmp_path / "m.tapm"
        path.write_bytes(blob)
        model = TestCheckpoints()._model(None)
        try:
            assert load_weights(model, path) is model
        except (ConfigError, *DATA_ERRORS):
            pass
