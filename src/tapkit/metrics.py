"""Proposal and localization metrics.

Recall is pooled over instances, not averaged per video: a ground-truth
instance counts as recalled when any of the top-AN proposals of its video
reaches the tIoU threshold. AR averages recall over the standard 10-threshold
grid, and the AR-AN curve samples AN = 1..AN_max with area = mean. Detection
AP follows the usual greedy-matching, monotone-envelope formulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DatasetIndex, ProposalSet, Subset, TemporalInterval, interval_bounds, tiou_matrix
from .errors import MetricError
from .util import KEY_BASELINE, rng_for

DEFAULT_AN_MAX = 100


def tiou_grid() -> tuple[float, ...]:
    """The 10 evaluation thresholds 0.50, 0.55, ..., 0.95."""
    return tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _check_grid(grid) -> tuple[float, ...]:
    if grid is None:
        return tiou_grid()
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise MetricError("threshold grid must be non-empty")
    for t in grid:
        if not 0.0 < t <= 1.0:
            raise MetricError(f"tiou threshold must lie in (0, 1], got {t}")
    return grid


def gt_intervals(index: DatasetIndex, subset: Subset) -> dict[str, list[TemporalInterval]]:
    """Label-agnostic ground-truth intervals for every video of a subset."""
    return {
        rec.video_id: [inst.interval for inst in rec.instances]
        for rec in index.subset_videos(subset)
    }


# --------------------------------------------------------------------------
# proposal metrics


@dataclass(frozen=True)
class ArAnCurve:
    an_max: int
    ar: tuple[float, ...]
    area: float

    def ar_at(self, an: int) -> float:
        if not 1 <= an <= self.an_max:
            raise MetricError(f"an must lie in 1..{self.an_max}, got {an}")
        return self.ar[an - 1]


def ar_an(
    proposals: Mapping[str, ProposalSet],
    gt: Mapping[str, Sequence[TemporalInterval]],
    an_max: int = DEFAULT_AN_MAX,
    grid=None,
) -> ArAnCurve:
    """AR at every AN in 1..an_max plus the mean-of-curve area.

    Computed by ranking, for each (instance, threshold) pair, the first
    proposal that reaches the threshold, then counting cumulatively.
    """
    grid = _check_grid(grid)
    if an_max < 1:
        raise MetricError(f"an_max must be >= 1, got {an_max}")
    total = sum(len(v) for v in gt.values())
    if total == 0:
        raise MetricError("recall undefined: no ground-truth instances")

    # hits[r, t]: (instance, threshold) pairs first recalled at rank r (1-based)
    hits = np.zeros((an_max + 1, len(grid)), dtype=np.int64)
    thresholds = np.asarray(grid, dtype=np.float64)
    for vid, intervals in gt.items():
        pset = proposals.get(vid)
        if not intervals or pset is None or len(pset) == 0:
            continue
        starts, ends = pset.starts[:an_max], pset.ends[:an_max]
        # prefix[r, g]: best tIoU of instance g among the top r + 1 proposals
        prefix = np.maximum.accumulate(
            tiou_matrix(starts, ends, *interval_bounds(intervals)), axis=0)
        # the first rank reaching each threshold: prefix is non-decreasing
        ranks = np.count_nonzero(prefix[:, :, None] < thresholds, axis=0)
        g_idx, t_idx = np.nonzero(ranks < len(starts))
        np.add.at(hits, (ranks[g_idx, t_idx] + 1, t_idx), 1)

    cum = np.cumsum(hits, axis=0)
    ar = tuple(float(np.mean(cum[an] / total)) for an in range(1, an_max + 1))
    return ArAnCurve(an_max, ar, float(np.mean(np.asarray(ar))))


def uniform_random_proposals(
    index: DatasetIndex,
    subset: Subset,
    count: int = DEFAULT_AN_MAX,
    seed: int = 0,
) -> dict[str, ProposalSet]:
    """Scored random-interval baseline, deterministic per seed."""
    if count < 1:
        raise MetricError(f"count must be >= 1, got {count}")
    rng = rng_for(seed, KEY_BASELINE)
    out = {}
    for rec in index.subset_videos(subset):
        starts, ends, scores = [], [], []
        for _ in range(count):
            lo, hi = np.sort(rng.uniform(0.0, rec.duration, size=2))
            while hi <= lo:
                lo, hi = np.sort(rng.uniform(0.0, rec.duration, size=2))
            starts.append(lo)
            ends.append(hi)
            scores.append(rng.uniform(0.0, 1.0))
        out[rec.video_id] = ProposalSet(rec.video_id, starts, ends, scores)
    return out


# --------------------------------------------------------------------------
# localization metrics

# LocalizationResult: per-video lists of (label, interval, score)
LocEntry = tuple[str, TemporalInterval, float]


def _loc_sort_key(entry: LocEntry):
    label, interval, score = entry
    return (-score, interval.start, interval.length, label)


def attach_labels(
    proposals: Mapping[str, ProposalSet],
    classification: Mapping[str, Sequence[tuple[str, float]]],
    top_c: int = 1,
) -> dict[str, list[LocEntry]]:
    """Label each proposal with the video's top-c classes.

    Entry score = proposal score x class confidence; a video with proposals
    but no classification entry is an error.
    """
    if top_c < 1:
        raise MetricError(f"top_c must be >= 1, got {top_c}")
    out: dict[str, list[LocEntry]] = {}
    for vid in sorted(proposals):
        pset = proposals[vid]
        if len(pset) == 0:
            out[vid] = []
            continue
        classes = classification.get(vid)
        if not classes:
            raise MetricError(f"no classification entry for video {vid}")
        bounds = zip(pset.starts.tolist(), pset.ends.tolist())
        intervals = [TemporalInterval(start, end) for start, end in bounds]
        entries = []
        for label, confidence in classes[:top_c]:
            for interval, score in zip(intervals, pset.scores.tolist()):
                entries.append((label, interval, score * confidence))
        entries.sort(key=_loc_sort_key)
        out[vid] = entries
    return out


def average_precision(
    predictions: Sequence[tuple[str, TemporalInterval, float]],
    gt: Mapping[str, Sequence[TemporalInterval]],
    threshold: float,
) -> float:
    """Greedy-matched AP for one class pooled over videos."""
    if not 0.0 < threshold <= 1.0:
        raise MetricError(f"threshold must lie in (0, 1], got {threshold}")
    total = sum(len(v) for v in gt.values())
    if total == 0:
        raise MetricError("AP undefined: class has no ground truth")
    if not predictions:
        return 0.0

    ordered = sorted(
        predictions,
        key=lambda e: (-e[2], e[1].start, e[1].length, e[0]),
    )
    # ious[k]: tIoU of prediction k against each gt instance of its video
    rows_by_vid: dict[str, list[int]] = {}
    for k, (vid, _interval, _score) in enumerate(ordered):
        rows_by_vid.setdefault(vid, []).append(k)
    ious: list[list[float]] = [[] for _ in ordered]
    for vid, rows in rows_by_vid.items():
        candidates = gt.get(vid, ())
        if not candidates:
            continue
        matrix = tiou_matrix(*interval_bounds([ordered[k][1] for k in rows]),
                             *interval_bounds(candidates))
        for k, row in zip(rows, matrix.tolist()):
            ious[k] = row

    used: dict[str, set[int]] = {}
    tp = np.zeros(len(ordered), dtype=np.float64)
    for k, (vid, _interval, _score) in enumerate(ordered):
        taken = used.setdefault(vid, set())
        best_iou = 0.0
        best_idx = -1
        for gi, value in enumerate(ious[k]):
            if gi in taken:
                continue
            if value > best_iou:
                best_iou = value
                best_idx = gi
        if best_idx >= 0 and best_iou >= threshold:
            taken.add(best_idx)
            tp[k] = 1.0

    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(ordered) + 1)
    recall_pts = cum_tp / total
    # monotone envelope, then sum precision over recall increments
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = 0.0
    ap = 0.0
    for k in range(len(ordered)):
        if tp[k] > 0.0:
            ap += (recall_pts[k] - prev) * envelope[k]
            prev = recall_pts[k]
    return float(ap)


def _split_by_class(
    localization: Mapping[str, Sequence[LocEntry]],
    index: DatasetIndex,
    subset: Subset,
):
    records = index.subset_videos(subset)
    gt_by_class: dict[str, dict[str, list[TemporalInterval]]] = {}
    preds_by_class: dict[str, list[tuple[str, TemporalInterval, float]]] = {}
    for rec in records:
        for inst in rec.instances:
            gt_by_class.setdefault(inst.label, {}).setdefault(rec.video_id, []).append(
                inst.interval
            )
        for label, interval, score in localization.get(rec.video_id, ()):
            preds_by_class.setdefault(label, []).append((rec.video_id, interval, score))
    return gt_by_class, preds_by_class


def mean_ap(
    localization: Mapping[str, Sequence[LocEntry]],
    index: DatasetIndex,
    threshold: float,
    subset: Subset = Subset.VALIDATION,
) -> float:
    """Mean AP over the classes that have ground truth in the subset."""
    gt_by_class, preds_by_class = _split_by_class(localization, index, subset)
    for label in index.label_set:
        if label not in gt_by_class:
            warnings.warn(
                f"class {label!r} has no ground truth in {subset.value}; excluded from mAP",
                RuntimeWarning,
                stacklevel=2,
            )
    if not gt_by_class:
        raise MetricError(f"mAP undefined: no ground truth in subset {subset.value}")
    aps = [
        average_precision(preds_by_class.get(label, ()), gt_by_class[label], threshold)
        for label in sorted(gt_by_class)
    ]
    return float(np.mean(np.asarray(aps)))


def eval_at_n(
    localization: Mapping[str, Sequence[LocEntry]],
    index: DatasetIndex,
    n: int,
    grid=None,
    subset: Subset = Subset.VALIDATION,
) -> float:
    """Grid mean of mean_ap with each video's predictions truncated to its top n."""
    if n < 1:
        raise MetricError(f"n must be >= 1, got {n}")
    truncated = {
        vid: sorted(entries, key=_loc_sort_key)[:n]
        for vid, entries in localization.items()
    }
    return float(np.mean([mean_ap(truncated, index, t, subset) for t in _check_grid(grid)]))
