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

from .core import (
    Proposal,
    ProposalSet,
    Source,
    TemporalInterval,
    VideoRecord,
    clip_unit,
    denormalize,
    interval_bounds,
    tiou_matrix,
)
from .engine import Conv1d, Layer, ReLU, Sequential, Sigmoid, fit
from .errors import ConfigError, DataFormatError, IntervalError, ShapeError
from .ingest import FeatureSequence, resize_linear
from .util import KEY_SSAD_INIT, KEY_SSAD_SHUFFLE, rng_for


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
                f"input_length/4 must be a power of two, got {largest}"
            )
        return tuple(2**i for i in range(int(math.log2(largest)) + 1))

    def __post_init__(self) -> None:
        self.resolved_layer_lengths()
        if self.hidden_channels < 1:
            raise ConfigError("hidden_channels must be >= 1")
        if self.base_kernel < 1 or self.base_kernel % 2 == 0:
            raise ConfigError(f"base_kernel must be odd and >= 1, got {self.base_kernel}")
        if not self.scale_ratios:
            raise ConfigError("scale_ratios must be non-empty")
        for d in self.scale_ratios:
            if not d > 0.0:
                raise ConfigError(f"scale ratio must be > 0, got {d}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be > 0")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclass(frozen=True)
class Anchor:
    layer: int
    cell: int
    ratio: float
    interval: TemporalInterval  # default interval on [0, 1], already clipped


@dataclass(frozen=True)
class AnchorPyramid:
    anchors: tuple[Anchor, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.anchors)


def build_anchor_pyramid(cfg: SsadConfig) -> AnchorPyramid:
    """Default anchor intervals in (layer, cell, ratio) lexicographic order.

    A cell i of a length-L map centers its anchors at (i+0.5)/L with widths
    ratio/L, clipped to [0, 1].
    """
    lengths = cfg.resolved_layer_lengths()
    anchors = []
    for layer, length in enumerate(lengths):
        for cell in range(length):
            center = (cell + 0.5) / length
            for ratio in cfg.scale_ratios:
                half = 0.5 * ratio / length
                iv = clip_unit(TemporalInterval(center - half, center + half))
                anchors.append(Anchor(layer, cell, ratio, iv))
    return AnchorPyramid(tuple(anchors))


def assign_targets(pyramid: AnchorPyramid, gt: list[TemporalInterval]) -> np.ndarray:
    """Per-anchor regression target: max tIoU against the (normalized) gt set."""
    for iv in gt:
        if iv.start < 0.0 or iv.end > 1.0:
            raise IntervalError(f"gt interval [{iv.start}, {iv.end}) not normalized")
    if not gt:
        return np.zeros(len(pyramid), dtype=np.float64)
    ious = tiou_matrix(*interval_bounds([a.interval for a in pyramid.anchors]),
                       *interval_bounds(gt))
    return ious.max(axis=1)


class SsadModel(Sequential):
    """Shared conv trunk with one overlap-prediction head per feature map.

    Forward maps (N, D, L_in) to (N, A) sigmoid overlap scores, flattened in
    the anchor pyramid's (layer, cell, ratio) order, where D is the feature
    dimension. self.layers holds the stem, down and head layers in that order.
    """

    def __init__(self, feature_dim: int, cfg: SsadConfig,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.feature_dim = feature_dim
        self.cfg = cfg
        lengths = cfg.resolved_layer_lengths()
        self.map_lengths = tuple(reversed(lengths))  # descending, as produced
        h = cfg.hidden_channels
        k = cfg.base_kernel
        n_down = int(math.log2(cfg.input_length))

        self.stem: list[Layer] = [
            Conv1d(feature_dim, h, k, stride=1, pad=k // 2, rng=rng, dtype=dtype),
            ReLU(),
        ]
        self.downs: list[list[Layer]] = [
            [Conv1d(h, h, 3, stride=2, pad=1, rng=rng, dtype=dtype), ReLU()]
            for _ in range(n_down)
        ]
        # down block j outputs length L_in / 2^(j+1); maps start at block 1
        self._map_down_index = {j: j - 1 for j in range(1, n_down)}  # down idx -> map idx
        n_ratios = len(cfg.scale_ratios)
        self.heads: list[list[Layer]] = [
            [Conv1d(h, n_ratios, 3, stride=1, pad=1, rng=rng, dtype=dtype), Sigmoid()]
            for _ in self.map_lengths
        ]
        self._cache_maps: list[np.ndarray] | None = None
        super().__init__(
            [*self.stem, *(layer for blk in self.downs for layer in blk),
             *(layer for head in self.heads for layer in head)]
        )

    @property
    def num_anchors(self) -> int:
        return sum(self.map_lengths) * len(self.cfg.scale_ratios)

    # -- forward/backward

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.feature_dim or x.shape[2] != self.cfg.input_length:
            raise ShapeError(
                f"expected (N, {self.feature_dim}, {self.cfg.input_length}) input, "
                f"got {x.shape}"
            )
        for layer in self.stem:
            x = layer.forward(x)
        maps = []
        for j, blk in enumerate(self.downs):
            for layer in blk:
                x = layer.forward(x)
            if j >= 1:
                maps.append(x)
        self._cache_maps = maps

        n_ratios = len(self.cfg.scale_ratios)
        slices = []
        # pyramid order is ascending lengths; maps were produced descending
        for m_idx in range(len(maps) - 1, -1, -1):
            y = maps[m_idx]
            for layer in self.heads[m_idx]:
                y = layer.forward(y)
            n, _, length = y.shape
            # (N, R, L) -> (N, L, R) so cells vary slower than ratios
            slices.append(np.transpose(y, (0, 2, 1)).reshape(n, length * n_ratios))
        return np.concatenate(slices, axis=1)

    def backward(self, grad_scores: np.ndarray) -> None:
        maps = self._cache_maps
        if maps is None:
            raise ShapeError("backward called before forward")
        n = grad_scores.shape[0]
        n_ratios = len(self.cfg.scale_ratios)

        map_grads: dict[int, np.ndarray] = {}
        offset = 0
        for m_idx in range(len(maps) - 1, -1, -1):
            length = maps[m_idx].shape[2]
            width = length * n_ratios
            gs = grad_scores[:, offset : offset + width]
            offset += width
            gy = np.transpose(gs.reshape(n, length, n_ratios), (0, 2, 1))
            gy = np.ascontiguousarray(gy)
            for layer in reversed(self.heads[m_idx]):
                gy = layer.backward(gy)
            map_grads[m_idx] = gy
        if offset != grad_scores.shape[1]:
            raise ShapeError(
                f"grad width {grad_scores.shape[1]} != anchor count {offset}"
            )

        g = None
        for j in range(len(self.downs) - 1, -1, -1):
            m_idx = self._map_down_index.get(j)
            if m_idx is not None:
                g = map_grads[m_idx] if g is None else g + map_grads[m_idx]
            for layer in reversed(self.downs[j]):
                g = layer.backward(g)
        for layer in reversed(self.stem):
            g = layer.backward(g)


def build_model(feature_dim: int, cfg: SsadConfig, seed: int = 0) -> SsadModel:
    return SsadModel(feature_dim, cfg, rng=rng_for(seed, KEY_SSAD_INIT))


# --------------------------------------------------------------------------
# training / inference


def _prepare_input(seq: FeatureSequence, cfg: SsadConfig) -> np.ndarray:
    """Resize to the trunk's input length and go channels-first."""
    resized = resize_linear(seq, cfg.input_length)
    return np.ascontiguousarray(resized.data.T, dtype=np.float32)


def _video_targets(record: VideoRecord, pyramid: AnchorPyramid) -> np.ndarray:
    gt = [
        TemporalInterval(inst.interval.start / record.duration, inst.interval.end / record.duration)
        for inst in record.instances
    ]
    return assign_targets(pyramid, gt)


def train(
    model: SsadModel,
    records: list[VideoRecord],
    features: dict[str, FeatureSequence],
    seed: int = 0,
) -> list[float]:
    """Overlap-regression training; returns the per-epoch mean loss trace.

    Deterministic given the seed: a dedicated RNG drives the per-epoch video
    shuffle and nothing else. Raises DivergenceError naming the epoch if the
    loss goes non-finite.
    """
    cfg = model.cfg
    pyramid = build_anchor_pyramid(cfg)
    records = sorted(records, key=lambda r: r.video_id)
    missing = [r.video_id for r in records if r.video_id not in features]
    if missing:
        raise DataFormatError(f"no features for training video {missing[0]}")
    inputs = np.stack([_prepare_input(features[r.video_id], cfg) for r in records])
    targets = np.stack([_video_targets(r, pyramid) for r in records]).astype(np.float32)

    return fit(model, inputs, targets, cfg.epochs, cfg.batch_size, cfg.learning_rate,
               rng_for(seed, KEY_SSAD_SHUFFLE))


def infer(
    model: SsadModel,
    seq: FeatureSequence,
    record: VideoRecord,
    pyramid: AnchorPyramid | None = None,
) -> ProposalSet:
    """Score every anchor and emit the top-k default intervals in seconds."""
    cfg = model.cfg
    if pyramid is None:
        pyramid = build_anchor_pyramid(cfg)
    x = _prepare_input(seq, cfg)[None, :, :]
    scores = model.forward(x)[0]
    if scores.shape[0] != len(pyramid):
        raise ShapeError(
            f"model emitted {scores.shape[0]} scores for {len(pyramid)} anchors"
        )
    proposals = [
        Proposal(denormalize(anchor.interval, record.duration), float(s), Source.SSAD)
        for anchor, s in zip(pyramid.anchors, scores)
    ]
    return ProposalSet(record.video_id, tuple(proposals)).top(cfg.top_k)
