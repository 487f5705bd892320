"""Anchor-based temporal proposal network.

An anchor pyramid is laid over multi-scale temporal feature maps (lengths
L_in/4 down to 1); a shared conv trunk plus one small prediction conv per map
regresses each anchor's overlap with ground truth, trained with MSE only.
Proposals are the default anchor intervals ranked by predicted overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ProposalSet, Source, VideoRecord, tiou_matrix
from .engine import Conv1d, Layer, ReLU, Sequential, Sigmoid, fit
from .errors import ConfigError, DataError
from .ingest import FeatureSequence, resize_linear
from .util import KEY_SSAD_INIT, KEY_SSAD_SHUFFLE, U32_MAX, rng_for

# Videos per inference forward pass. Against one video per pass, over 21
# in-process scoring rounds of perfbench's propose config, batch 4 raised
# peak RSS by about 0.8 MB, batch 8 by 3.2 MB and batch 16 by 8.8 MB.
INFER_BATCH = 4


@dataclass(frozen=True)
class SsadConfig:
    input_length: int = 256
    hidden_channels: int = 32
    base_kernel: int = 9
    scale_ratios: tuple[float, ...] = (0.5, 0.75, 1.0)
    epochs: int = 40
    batch_size: int = 8
    learning_rate: float = 1e-3
    top_k: int = 200

    def resolved_layer_lengths(self) -> tuple[int, ...]:
        """Ascending map lengths L_in/4, L_in/8, ..., 1; checks input_length."""
        if self.input_length < 4 or self.input_length % 4 != 0:
            raise ConfigError(f"input_length must be a multiple of 4, got {self.input_length}")
        largest = self.input_length // 4
        if largest & (largest - 1) != 0:
            raise ConfigError(
                f"input_length must be 4 times a power of two, got {self.input_length}"
            )
        return tuple(2**i for i in range(int(math.log2(largest)) + 1))

    def __post_init__(self) -> None:
        self.resolved_layer_lengths()
        if self.hidden_channels < 1:
            raise ConfigError(f"hidden_channels must be >= 1, got {self.hidden_channels}")
        if self.base_kernel < 1 or self.base_kernel % 2 == 0:
            raise ConfigError(f"base_kernel must be odd and >= 1, got {self.base_kernel}")
        for name in ("hidden_channels", "base_kernel"):
            if getattr(self, name) > U32_MAX:
                raise ConfigError(f"{name} must be <= {U32_MAX}, got {getattr(self, name)}")
        if not self.scale_ratios:
            raise ConfigError(f"scale_ratios must be non-empty, got {self.scale_ratios}")
        for d in self.scale_ratios:
            if not d > 0.0:
                raise ConfigError(f"scale_ratios values must be > 0, got {d}")
        for name, low in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True, eq=False)
class AnchorPyramid:
    """Default anchor intervals on [0, 1], already clipped, as start and end
    arrays in (layer, cell, ratio) lexicographic order, and each feature
    map's slice of that order, longest map first."""

    starts: np.ndarray = field(repr=False)
    ends: np.ndarray = field(repr=False)
    maps: tuple[slice, ...]

    def __len__(self) -> int:
        return len(self.starts)


def build_anchor_pyramid(cfg: SsadConfig) -> AnchorPyramid:
    """A cell i of a length-L map centers its anchors at (i+0.5)/L with widths
    ratio/L, clipped to [0, 1]; ratios vary fastest, then cells, then layers.
    """
    ratios = np.asarray(cfg.scale_ratios, dtype=np.float64)
    starts, ends, maps = [], [], []
    for length in cfg.resolved_layer_lengths():
        center = ((np.arange(length) + 0.5) / length)[:, None]
        half = 0.5 * ratios / length
        first = sum(map(len, starts))
        starts.append(np.maximum(0.0, center - half).ravel())
        ends.append(np.minimum(1.0, center + half).ravel())
        maps.insert(0, slice(first, first + len(starts[-1])))
    return AnchorPyramid(np.concatenate(starts), np.concatenate(ends), tuple(maps))


def assign_targets(pyramid: AnchorPyramid, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per-anchor regression target: max tIoU against the gt spans, given as
    start and end arrays normalized to [0, 1]."""
    return tiou_matrix(pyramid.starts, pyramid.ends, starts, ends).max(axis=1, initial=0.0)


class SsadModel(Sequential):
    """Shared conv trunk with one overlap-prediction head per feature map.

    Forward maps (N, D, L_in) to (N, A) sigmoid overlap scores, flattened in
    the (layer, cell, ratio) order of self.pyramid, its A anchors; D is the
    feature dimension. heads[k] scores the columns pyramid.maps[k]. The trunk
    has one more down block than there are maps: block j outputs length
    L_in / 2^(j+1), and head j-1 reads block j >= 1. self.layers holds the
    stem, down and head layers in that order; their convs draw their initial
    weights, in that order too, from rng_for(seed, KEY_SSAD_INIT), as
    build_mlp does from KEY_TAG_INIT.
    """

    def __init__(self, feature_dim: int, cfg: SsadConfig, seed: int, dtype=np.float32):
        rng = rng_for(seed, KEY_SSAD_INIT)
        self.feature_dim = feature_dim
        self.cfg = cfg
        self.pyramid = build_anchor_pyramid(cfg)
        h = cfg.hidden_channels
        k = cfg.base_kernel

        self.stem: list[Layer] = [
            Conv1d(feature_dim, h, k, stride=1, pad=k // 2, rng=rng, dtype=dtype),
            ReLU(),
        ]
        self.downs: list[list[Layer]] = [
            [Conv1d(h, h, 3, stride=2, pad=1, rng=rng, dtype=dtype), ReLU()]
            for _ in range(len(self.pyramid.maps) + 1)
        ]
        n_ratios = len(cfg.scale_ratios)
        self.heads: list[list[Layer]] = [
            [Conv1d(h, n_ratios, 3, stride=1, pad=1, rng=rng, dtype=dtype), Sigmoid()]
            for _ in self.pyramid.maps
        ]
        super().__init__(
            [*self.stem, *(layer for blk in self.downs for layer in blk),
             *(layer for head in self.heads for layer in head)]
        )

    @property
    def num_anchors(self) -> int:
        return len(self.pyramid)

    def _head_view(self, scores: np.ndarray, k: int) -> np.ndarray:
        """A view of map k's columns of an (N, A) score array as head k's (N, R, L)
        output, cells slower than ratios; forward writes through it."""
        cols = scores[:, self.pyramid.maps[k]]
        return np.transpose(cols.reshape(len(scores), -1, len(self.cfg.scale_ratios)), (0, 2, 1))

    # -- forward/backward

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.feature_dim or x.shape[2] != self.cfg.input_length:
            raise DataError(
                f"expected (N, {self.feature_dim}, {self.cfg.input_length}) input, "
                f"got {x.shape}"
            )
        for layer in self.stem:
            x = layer.forward(x)
        scores = np.empty((len(x), self.num_anchors), dtype=x.dtype)
        for j, blk in enumerate(self.downs):
            for layer in blk:
                x = layer.forward(x)
            if j >= 1:
                y = x
                for layer in self.heads[j - 1]:
                    y = layer.forward(y)
                self._head_view(scores, j - 1)[...] = y
        return scores

    def backward(self, grad_scores: np.ndarray) -> None:
        if grad_scores.ndim != 2 or grad_scores.shape[1] != self.num_anchors:
            raise DataError(
                f"score gradient shape {grad_scores.shape} != (N, {self.num_anchors} anchors)"
            )
        g = None
        for j in range(len(self.downs) - 1, -1, -1):
            if j >= 1:
                gy = np.ascontiguousarray(self._head_view(grad_scores, j - 1))
                for layer in reversed(self.heads[j - 1]):
                    gy = layer.backward(gy)
                g = gy if g is None else g + gy
            for layer in reversed(self.downs[j]):
                g = layer.backward(g)
        for layer in reversed(self.stem[1:]):
            g = layer.backward(g)
        self.stem[0].backward(g, input_grad=False)


# --------------------------------------------------------------------------
# training / inference


def _prepare_input(seq: FeatureSequence, cfg: SsadConfig) -> np.ndarray:
    """Resize to the trunk's input length and go channels-first."""
    return np.ascontiguousarray(resize_linear(seq, cfg.input_length).T)


def train(
    model: SsadModel,
    records: list[VideoRecord],
    features: dict[str, FeatureSequence],
    cfg: SsadConfig,
    seed: int,
) -> list[float]:
    """Overlap-regression training; returns the per-epoch mean loss trace.

    cfg, the section the model was built from, also sets the input length
    and the epochs, batch size and learning rate. Deterministic given the
    seed and the records, which arrive in video-id order: a dedicated RNG
    drives the per-epoch shuffle and nothing else.
    Raises DivergenceError naming the epoch if a gradient or loss goes non-finite.
    """
    inputs = np.stack([_prepare_input(features[r.video_id], cfg) for r in records])
    targets = np.stack([assign_targets(model.pyramid, r.starts / r.duration, r.ends / r.duration)
                        for r in records]).astype(np.float32)

    return fit(model, inputs, targets, cfg.epochs, cfg.batch_size, cfg.learning_rate,
               rng_for(seed, KEY_SSAD_SHUFFLE))


def infer(
    model: SsadModel,
    records: list[VideoRecord],
    features: dict[str, FeatureSequence],
) -> dict[str, ProposalSet]:
    """Score every anchor of model.pyramid on the given videos, INFER_BATCH
    videos per forward pass, and emit each video's top-k default intervals in
    seconds, keyed by video id.

    matmul runs one gemm per sample, so a video's scores do not depend on
    the batch it is scored in.
    """
    pyramid = model.pyramid
    out = {}
    for lo in range(0, len(records), INFER_BATCH):
        batch = records[lo : lo + INFER_BATCH]
        x = np.stack([_prepare_input(features[r.video_id], model.cfg) for r in batch])
        for rec, row in zip(batch, model.forward(x)):
            out[rec.video_id] = ProposalSet(pyramid.starts * rec.duration,
                                            pyramid.ends * rec.duration, row, Source.SSAD
                                            ).take(slice(model.cfg.top_k))
    return out
