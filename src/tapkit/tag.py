"""Actionness scoring and temporal grouping.

A small MLP scores each snippet's probability of lying inside an action
instance; runs of high-actionness snippets are grouped into proposal regions
under a grid of threshold/coverage tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProposalSet, Source, VideoRecord
from .engine import Dense, ReLU, Sequential, Sigmoid, fit
from .errors import ConfigError, DataError
from .ingest import FeatureSequence, snippets_inside
from .util import KEY_TAG_INIT, KEY_TAG_SHUFFLE, U32_MAX, rng_for


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
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.hidden_width > U32_MAX:
            raise ConfigError(f"hidden_width must be <= {U32_MAX}, got {self.hidden_width}")
        for name, grid in (("tau_grid", self.tau_grid), ("gamma_grid", self.gamma_grid)):
            if not grid:
                raise ConfigError(f"{name} must be non-empty, got {grid}")
            for v in grid:
                if not 0.0 < v < 1.0:
                    raise ConfigError(f"{name} values must lie in (0, 1), got {v}")
        if self.min_fragment < 1:
            raise ConfigError(f"min_fragment must be >= 1, got {self.min_fragment}")
        for name, low in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def actionness_targets(record: VideoRecord, num_snippets: int) -> np.ndarray:
    """Binary snippet labels: 1 iff the snippet center falls inside an instance."""
    return snippets_inside(num_snippets, record.duration, record.starts, record.ends).astype(np.float64)


def build_mlp(feature_dim: int, cfg: TagConfig, seed: int = 0) -> Sequential:
    """One-hidden-layer scorer. The output layer starts at zero so an
    untrained model emits exactly 0.5 everywhere."""
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
    xs = [features[r.video_id].data for r in records]
    ys = [actionness_targets(r, features[r.video_id].num_snippets) for r in records]
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0).astype(np.float32)[:, None]

    return fit(model, x, y, cfg.epochs, cfg.batch_size, cfg.learning_rate,
               rng_for(seed, KEY_TAG_SHUFFLE))


def predict_actionness(model: Sequential, seq: FeatureSequence) -> np.ndarray:
    """Per-snippet action probabilities of one video, as a 1-D float64 array."""
    scores = model.forward(seq.data)
    return scores[:, 0].astype(np.float64)


# --------------------------------------------------------------------------
# grouping


# Grouping and scoring work on blocks of at most about this many elements, so
# that a long video's fragment pairs and regions never fill memory at once.
_BLOCK_ELEMENTS = 1 << 18


def _fragments(values: np.ndarray, taus, min_frag: int):
    """Maximal runs of values >= tau for every tau of the grid, kept when at
    least min_frag long, as flat (tau row, start, end) int64 arrays: rows in
    grid order, runs in time order within a row."""
    above = np.zeros((len(taus), len(values) + 2), dtype=np.int8)
    above[:, 1:-1] = values >= np.asarray(taus, dtype=np.float64)[:, None]
    rows, edges = np.nonzero(np.diff(above, axis=1))
    # each row's edges alternate run start (+1) and run end (-1)
    starts, ends = edges[0::2], edges[1::2]
    keep = ends - starts >= min_frag
    return rows[0::2][keep], starts[keep], ends[keep]


def _regions(values: np.ndarray, taus, gammas, min_frag: int,
             scan_cutoff: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct snippet-index regions [start, end) over the tau/gamma grid,
    sorted by (start, end).

    A region spans fragments i..j of one tau and is kept for a gamma when
    its coverage (the fraction of the span inside fragments) reaches gamma.
    With scan_cutoff, the j scan for a fragment i stops at the first j where
    j-1 and j both fail; without it every (i, j) pair is tested. Fragment i
    and offset k = j - i index a padded table, a block of i at a time.
    """
    num = len(values)
    rows, starts, ends = _fragments(values, taus, min_frag)
    if len(starts) == 0:
        return starts, ends
    first = np.arange(len(starts))
    last = np.searchsorted(rows, rows, side="right") - 1  # last fragment of i's tau
    covered = np.concatenate(([0], np.cumsum(ends - starts)))
    offsets = np.arange(int((last - first).max()) + 1)
    gammas = np.asarray(gammas, dtype=np.float64)[:, None, None]
    block = max(1, _BLOCK_ELEMENTS // (len(offsets) * len(gammas)))
    codes = []
    for lo in range(0, len(starts), block):
        i = first[lo : lo + block, None]
        j = np.minimum(i + offsets, last[i])  # clipped into the row; masked below
        # int64 / int64: one correctly rounded division, as int / int
        coverage = (covered[j + 1] - covered[i]) / (ends[j] - starts[i])
        passed = coverage >= gammas
        if scan_cutoff:
            both_fail = ~(passed[:, :, 1:] | passed[:, :, :-1])
            passed[:, :, 1:] &= ~np.logical_or.accumulate(both_fail, axis=2)
        kept = passed.any(axis=0) & (i + offsets <= last[i])
        codes.append((starts[i] * (num + 1) + ends[j])[kept])
    # sorted codes start*(T+1)+end order regions by (start, end)
    codes = np.sort(np.concatenate(codes))
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return codes // (num + 1), codes % (num + 1)


def _region_means(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """values[start:end].mean() of every region, bit for bit: with the regions
    ordered by length, those of one length L are gathered as (k, L) rows, and
    np.add.reduce sums each row as mean sums a contiguous slice."""
    lengths = ends - starts
    order = np.argsort(lengths, kind="stable")
    lengths, firsts = lengths[order], starts[order]
    sums = np.empty(len(order), dtype=np.float64)
    taps = np.arange(len(values))
    # where each run of one length begins; every length is >= 1
    runs = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()
    for lo, hi in zip(runs, [*runs[1:], len(order)]):
        length = int(lengths[lo])
        step = max(1, _BLOCK_ELEMENTS // length)
        for a in range(lo, hi, step):
            b = min(hi, a + step)
            sums[a:b] = np.add.reduce(values[firsts[a:b, None] + taps[:length]], axis=1)
    means = np.empty_like(sums)
    means[order] = sums / lengths
    return means


def tag_proposals(values, cfg: TagConfig, record: VideoRecord) -> ProposalSet:
    """Union of the grouped regions over the tau/gamma grid, scored by mean
    actionness. values holds the video's per-snippet actionness in [0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 1:
        raise DataError(f"actionness for {record.video_id} must be a non-empty 1-D sequence, "
                        f"got shape {values.shape}")
    if not np.isfinite(values).all() or values.min() < 0.0 or values.max() > 1.0:
        raise DataError(f"actionness values for {record.video_id} outside [0, 1]")
    num = values.shape[0]
    starts, ends = _regions(values, cfg.tau_grid, cfg.gamma_grid, cfg.min_fragment,
                            cfg.scan_cutoff)
    duration = record.duration
    # a mean of values in [0, 1] lies in [0, 1]; the region's last snippet
    # ends at the duration exactly
    return ProposalSet(starts * duration / num,
                       np.where(ends == num, duration, ends * duration / num),
                       _region_means(values, starts, ends), Source.TAG)
