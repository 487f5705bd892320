"""Proposal and localization metrics.

Recall is pooled over instances, not averaged per video: a ground-truth
instance counts as recalled when any of the top-AN proposals of its video
reaches the tIoU threshold. AR averages recall over the standard 10-threshold
grid, and the AR-AN curve samples AN = 1..AN_max with area = mean.

Detection AP follows the usual greedy-matching, monotone-envelope
formulation. Each class's predictions are ranked once by (-score, start,
length, video), ties kept in input order, and matched in that order: a
prediction takes the first untaken ground truth of its video with the
strictly largest positive tIoU, and is a hit when that tIoU reaches the
threshold. Within one video and class this order is the video's own rank
under _loc_sort_key, so truncating every video to its top n keeps a prefix
of each video's predictions; since a video's match depends only on its
earlier predictions, the top-n match is the full match restricted to ranks
below n. mean_ap therefore matches once per threshold and masks per n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DatasetIndex, ProposalSet, Subset, VideoRecord, tiou_matrix
from .errors import DataError
from .util import KEY_BASELINE, rng_for


def tiou_grid() -> tuple[float, ...]:
    """The 10 evaluation thresholds 0.50, 0.55, ..., 0.95."""
    return tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


# --------------------------------------------------------------------------
# proposal metrics


@dataclass(frozen=True)
class ArAnCurve:
    ar: tuple[float, ...]
    area: float

    def ar_at(self, an: int) -> float:
        return self.ar[an - 1]


def ar_an(
    proposals: Mapping[str, ProposalSet],
    records: Sequence[VideoRecord],
    an_max: int,
    grid: Sequence[float] = tiou_grid(),
) -> ArAnCurve:
    """AR at every AN in 1..an_max plus the mean-of-curve area, over the
    label-agnostic ground truth of the given records.

    Computed by ranking, for each (instance, threshold) pair, the first
    proposal that reaches the threshold, then counting cumulatively.
    """
    total = sum(len(rec.starts) for rec in records)
    if total == 0:
        raise DataError("recall undefined: no ground-truth instances")

    # hits[r, t]: (instance, threshold) pairs first recalled at rank r (1-based)
    hits = np.zeros((an_max + 1, len(grid)), dtype=np.int64)
    thresholds = np.asarray(grid, dtype=np.float64)
    for rec in records:
        pset = proposals.get(rec.video_id)
        if len(rec.starts) == 0 or pset is None or len(pset) == 0:
            continue
        starts, ends = pset.starts[:an_max], pset.ends[:an_max]
        # prefix[r, g]: best tIoU of instance g among the top r + 1 proposals
        prefix = np.maximum.accumulate(
            tiou_matrix(starts, ends, rec.starts, rec.ends), axis=0)
        # the first rank reaching each threshold: prefix is non-decreasing
        ranks = np.count_nonzero(prefix[:, :, None] < thresholds, axis=0)
        g_idx, t_idx = np.nonzero(ranks < len(starts))
        np.add.at(hits, (ranks[g_idx, t_idx] + 1, t_idx), 1)

    cum = np.cumsum(hits, axis=0)
    ar = tuple(float(np.mean(cum[an] / total)) for an in range(1, an_max + 1))
    return ArAnCurve(ar, float(np.mean(np.asarray(ar))))


def _random_intervals(rng, duration: float, count: int):
    """count (start, end, score) columns from 3 * count doubles u of rng:
    per interval the sorted pair duration * u and then the score u.

    Generator.uniform(lo, hi) is lo + (hi - lo) * u, so these are the values
    of one uniform draw at a time. A pair whose scaled ends coincide is
    redrawn: it is cut from the stream and two fresh doubles are appended,
    the order in which a draw-until-distinct loop consumes them.
    """
    u = rng.random(3 * count)
    while True:
        triples = u.reshape(count, 3)
        a, b = duration * triples[:, 0], duration * triples[:, 1]
        tied = np.flatnonzero(a == b)
        if len(tied) == 0:
            return np.minimum(a, b), np.maximum(a, b), triples[:, 2]
        k = 3 * int(tied[0])
        u = np.concatenate((u[:k], u[k + 2 :], rng.random(2)))


def uniform_random_proposals(
    index: DatasetIndex,
    subset: Subset,
    count: int,
    seed: int,
) -> dict[str, ProposalSet]:
    """Scored random-interval baseline, deterministic per seed."""
    rng = rng_for(seed, KEY_BASELINE)
    return {rec.video_id: ProposalSet(*_random_intervals(rng, rec.duration, count))
            for rec in index.subset_videos(subset)}


# --------------------------------------------------------------------------
# localization metrics

# LocalizationResult: per-video lists of (label, start, end, score) rows
LocEntry = tuple[str, float, float, float]


def _loc_sort_key(entry: LocEntry):
    label, start, end, score = entry
    return (-score, start, end - start, label)


def attach_labels(
    proposals: Mapping[str, ProposalSet],
    classification: Mapping[str, Sequence[tuple[str, float]]],
    top_c: int = 1,
) -> dict[str, list[LocEntry]]:
    """Label each proposal with the video's top-c classes, ranked by _loc_sort_key.

    Entry score = proposal score x class confidence; a video with proposals
    but no classification entry is an error, and one whose entry lists no
    class gets no entries.
    """
    out: dict[str, list[LocEntry]] = {}
    for vid in sorted(proposals):
        pset = proposals[vid]
        if len(pset) and vid not in classification:
            raise DataError(f"no classification entry for video {vid}")
        rows = list(zip(pset.starts.tolist(), pset.ends.tolist(), pset.scores.tolist()))
        out[vid] = sorted(
            ((label, start, end, score * confidence)
             for label, confidence in classification.get(vid, ())[:top_c]
             for start, end, score in rows),
            key=_loc_sort_key)
    return out


def _average_precision(hits: np.ndarray, total: int) -> np.ndarray:
    """AP of each row of (thresholds, predictions) hit flags in AP order: the
    monotone envelope of precision summed over recall increments, one term
    at a time in rank order."""
    if hits.shape[1] == 0:
        return np.zeros(len(hits))
    cum_tp = np.cumsum(hits, axis=1, dtype=np.float64)
    precision = cum_tp / np.arange(1, hits.shape[1] + 1)
    recall_pts = cum_tp / total
    envelope = np.flip(np.maximum.accumulate(np.flip(precision, axis=1), axis=1), axis=1)
    terms = np.diff(recall_pts, axis=1, prepend=0.0) * envelope  # exactly 0 off the hits
    return np.add.accumulate(terms, axis=1)[:, -1]


def mean_ap(
    localization: Mapping[str, Sequence[LocEntry]],
    index: DatasetIndex,
    thresholds: Sequence[float],
    at_n: Sequence[int] = (),
    subset: Subset = Subset.VALIDATION,
) -> dict[int | None, dict[float, float]]:
    """Mean AP over the classes that have ground truth in the subset.

    Returns {None: {threshold: mAP}} over every entry, plus {n: {threshold:
    mAP}} over each video's top n entries (rank under _loc_sort_key) for
    each n of at_n. Each class is ranked and matched once (see the module
    docstring); each n only masks the match.
    """
    thresholds = tuple(dict.fromkeys(thresholds))
    records = index.subset_videos(subset)
    # gt_by_class[label][v]: the indices of that class's instances in records[v], in order
    gt_by_class: dict[str, dict[int, list[int]]] = {}
    preds_by_class: dict[str, list[tuple]] = {}
    for v, rec in enumerate(records):
        for i, label in enumerate(rec.labels):
            gt_by_class.setdefault(label, {}).setdefault(v, []).append(i)
        ranked = sorted(localization.get(rec.video_id, ()), key=_loc_sort_key)
        for rank, (label, start, end, score) in enumerate(ranked):
            preds_by_class.setdefault(label, []).append((-score, start, end - start, v, end, rank))
    for label in index.label_set:
        if label not in gt_by_class:
            warnings.warn(
                f"class {label!r} has no ground truth in {subset.value}; excluded from mAP",
                RuntimeWarning,
                stacklevel=2,
            )
    if not gt_by_class:
        raise DataError(f"mAP undefined: no ground truth in subset {subset.value}")

    cutoffs = (None, *dict.fromkeys(at_n))
    t = np.asarray(thresholds)
    per_t = np.arange(len(t))
    aps = {n: np.zeros((len(t), len(gt_by_class))) for n in cutoffs}
    for c, label in enumerate(sorted(gt_by_class)):
        gt = gt_by_class[label]
        # AP order (-score, start, length, video), ties in input order
        rows = sorted(preds_by_class.get(label, ()), key=lambda r: r[:4])
        _, starts, _, vids, ends, ranks = np.array(rows, dtype=np.float64).reshape(-1, 6).T
        hits = np.zeros((len(t), len(rows)), dtype=bool)
        for v, inst in gt.items():
            mine = np.flatnonzero(vids == v)
            rec = records[v]
            ious = tiou_matrix(starts[mine], ends[mine], rec.starts[inst], rec.ends[inst])
            taken = np.zeros((len(t), len(inst)), dtype=bool)
            # the greedy match, all thresholds at once; a row below every
            # threshold against every gt can never hit
            for k in np.flatnonzero(ious.max(axis=1) >= t.min()):
                free = np.where(taken, 0.0, ious[k])
                best = np.argmax(free, axis=1)  # the first of the largest untaken
                hit = free[per_t, best] >= t
                taken[per_t[hit], best[hit]] = True
                hits[:, mine[k]] = hit
        total = sum(len(v) for v in gt.values())
        for n in cutoffs:
            aps[n][:, c] = _average_precision(hits if n is None else hits[:, ranks < n], total)
    return {n: {thr: float(np.mean(table[i])) for i, thr in enumerate(thresholds)}
            for n, table in aps.items()}
