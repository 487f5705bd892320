"""Actionness scoring and temporal grouping.

A small MLP scores each snippet's probability of lying inside an action
instance; runs of high-actionness snippets are grouped into proposal regions
under a grid of threshold/coverage tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Proposal, ProposalSet, Source, TemporalInterval, VideoRecord
from .engine import Dense, ReLU, Sequential, Sigmoid, fit
from .errors import ConfigError, DataFormatError, ShapeError
from .ingest import FeatureSequence, snippet_centers
from .util import KEY_TAG_INIT, KEY_TAG_SHUFFLE, rng_for


@dataclass(frozen=True)
class ActionnessSequence:
    """Per-snippet action probabilities for one video."""

    video_id: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ShapeError(f"actionness must be a non-empty 1-D sequence, got shape {values.shape}")
        if not np.isfinite(values).all() or values.min() < 0.0 or values.max() > 1.0:
            raise ShapeError(f"actionness values for {self.video_id} outside [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def num_snippets(self) -> int:
        return int(self.values.shape[0])


_DECILE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class TagConfig:
    hidden_width: int = 64
    tau_grid: tuple[float, ...] = _DECILE_GRID
    gamma_grid: tuple[float, ...] = _DECILE_GRID
    min_fragment: int = 1
    scan_cutoff: bool = True
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.hidden_width < 1:
            raise ConfigError("hidden_width must be >= 1")
        for name, grid in (("tau_grid", self.tau_grid), ("gamma_grid", self.gamma_grid)):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            for v in grid:
                if not 0.0 < v < 1.0:
                    raise ConfigError(f"{name} values must lie in (0, 1), got {v}")
        if self.min_fragment < 1:
            raise ConfigError("min_fragment must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be > 0")


def actionness_targets(record: VideoRecord, num_snippets: int) -> np.ndarray:
    """Binary snippet labels: 1 iff the snippet center falls inside an instance."""
    if num_snippets < 1:
        raise ShapeError(f"num_snippets must be >= 1, got {num_snippets}")
    centers = snippet_centers(num_snippets, record.duration)
    labels = np.zeros(num_snippets, dtype=np.float64)
    for inst in record.instances:
        inside = (centers >= inst.interval.start) & (centers < inst.interval.end)
        labels[inside] = 1.0
    return labels


def build_mlp(feature_dim: int, cfg: TagConfig, seed: int = 0) -> Sequential:
    """One-hidden-layer scorer. The output layer starts at zero so an
    untrained model emits exactly 0.5 everywhere."""
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    rng = rng_for(seed, KEY_TAG_INIT)
    return Sequential([
        Dense(feature_dim, cfg.hidden_width, rng=rng),
        ReLU(),
        Dense(cfg.hidden_width, 1, rng=None),
        Sigmoid(),
    ])


def train_actionness(
    model: Sequential,
    records: list[VideoRecord],
    features: dict[str, FeatureSequence],
    cfg: TagConfig,
    seed: int = 0,
) -> list[float]:
    """Per-snippet MSE training on pooled snippets; returns the loss trace."""
    records = sorted(records, key=lambda r: r.video_id)
    missing = [r.video_id for r in records if r.video_id not in features]
    if missing:
        raise DataFormatError(f"no features for training video {missing[0]}")
    xs = [features[r.video_id].data for r in records]
    ys = [actionness_targets(r, features[r.video_id].num_snippets) for r in records]
    x = np.concatenate(xs, axis=0).astype(np.float32)
    y = np.concatenate(ys, axis=0).astype(np.float32)[:, None]

    return fit(model, x, y, cfg.epochs, cfg.batch_size, cfg.learning_rate,
               rng_for(seed, KEY_TAG_SHUFFLE))


def predict_actionness(model: Sequential, seq: FeatureSequence) -> ActionnessSequence:
    scores = model.forward(seq.data.astype(np.float32))
    return ActionnessSequence(seq.video_id, scores[:, 0].astype(np.float64))


# --------------------------------------------------------------------------
# grouping


def _fragments(values: np.ndarray, tau: float, min_frag: int) -> list[tuple[int, int]]:
    """Maximal runs of values >= tau, kept when at least min_frag long."""
    frags = []
    start = None
    for t, v in enumerate(values):
        if v >= tau:
            if start is None:
                start = t
        elif start is not None:
            if t - start >= min_frag:
                frags.append((start, t))
            start = None
    if start is not None and len(values) - start >= min_frag:
        frags.append((start, len(values)))
    return frags


def _group_fragments(
    frags: list[tuple[int, int]], gamma: float, scan_cutoff: bool
) -> set[tuple[int, int]]:
    """Snippet-index regions [start, end) spanning fragment i..j pairs whose
    coverage (fraction of the span lying inside fragments) reaches gamma.

    With scan_cutoff, the j scan for a fragment i stops after two consecutive
    coverage failures; without it every (i, j) pair is tested.
    """
    regions = set()
    for i in range(len(frags)):
        covered = 0
        failures = 0
        for j in range(i, len(frags)):
            covered += frags[j][1] - frags[j][0]
            span = frags[j][1] - frags[i][0]
            if covered / span >= gamma:
                regions.add((frags[i][0], frags[j][1]))
                failures = 0
            else:
                failures += 1
                if scan_cutoff and failures >= 2:
                    break
    return regions


def tag_proposals(
    actionness: ActionnessSequence,
    cfg: TagConfig,
    record: VideoRecord,
) -> ProposalSet:
    """Union of the grouped regions over the tau/gamma grid, scored by mean actionness."""
    values = actionness.values
    num = values.shape[0]
    regions = set()
    for tau in cfg.tau_grid:
        frags = _fragments(values, tau, cfg.min_fragment)
        for gamma in cfg.gamma_grid:
            regions.update(_group_fragments(frags, gamma, cfg.scan_cutoff))

    def to_seconds(idx: int) -> float:
        if idx == num:
            return record.duration
        return idx * record.duration / num

    proposals = []
    for start, end in sorted(regions):
        score = min(1.0, max(0.0, float(values[start:end].mean())))
        interval = TemporalInterval(to_seconds(start), to_seconds(end))
        proposals.append(Proposal(interval, score, Source.TAG))
    return ProposalSet(record.video_id, tuple(proposals))

