"""Interval algebra, temporal IoU and the shared proposal/annotation model.

Intervals are half-open [start, end) and zero-length intervals are invalid
everywhere. All time arithmetic is 64-bit floating point.

tiou_matrix is the one interval kernel: refinement, NMS, target assignment,
recall, AR-AN and AP all compare intervals through it, and scalar tiou is a
1x1 call of it, so the tIoU formula lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IntervalError


@dataclass(frozen=True)
class TemporalInterval:
    """A [start, end) time span, in seconds or in normalized [0, 1] units."""

    start: float
    end: float

    def __post_init__(self) -> None:
        start = float(self.start)
        end = float(self.end)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise IntervalError(f"non-finite interval [{self.start}, {self.end})")
        if start >= end:
            raise IntervalError(f"degenerate interval [{start}, {end}): start must be < end")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def length(self) -> float:
        return self.end - self.start


def tiou_matrix(starts_a, ends_a, starts_b, ends_b) -> np.ndarray:
    """Temporal IoU of every pair: a (len_a, len_b) float64 matrix.

    Intersection is min(ends) - max(starts) and union is
    (len(a) + len(b)) - intersection, so disjoint or touching pairs score
    exactly 0 regardless of the gap between them. The operations are the
    scalar formula's, in the same order, on float64 arrays.
    """
    sa = np.asarray(starts_a, dtype=np.float64)[:, None]
    ea = np.asarray(ends_a, dtype=np.float64)[:, None]
    sb = np.asarray(starts_b, dtype=np.float64)[None, :]
    eb = np.asarray(ends_b, dtype=np.float64)[None, :]
    inter = np.minimum(ea, eb) - np.maximum(sa, sb)
    union = ((ea - sa) + (eb - sb)) - inter
    out = np.zeros(inter.shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=inter > 0.0)
    return out


def interval_bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    """Start and end arrays of a sequence of intervals, for tiou_matrix."""
    starts = np.fromiter((iv.start for iv in intervals), dtype=np.float64)
    ends = np.fromiter((iv.end for iv in intervals), dtype=np.float64)
    return starts, ends


def tiou(a: TemporalInterval, b: TemporalInterval) -> float:
    """Temporal IoU of one pair; see tiou_matrix."""
    return float(tiou_matrix((a.start,), (a.end,), (b.start,), (b.end,))[0, 0])


def normalize(iv: TemporalInterval, duration: float) -> TemporalInterval:
    """Map an interval in seconds onto the unit scale of a video's duration."""
    if not (duration > 0.0) or not math.isfinite(duration):
        raise IntervalError(f"duration must be positive and finite, got {duration}")
    if iv.start < 0.0 or iv.end > duration:
        raise IntervalError(
            f"interval [{iv.start}, {iv.end}) outside [0, {duration}]"
        )
    return TemporalInterval(iv.start / duration, iv.end / duration)


def denormalize(iv: TemporalInterval, duration: float) -> TemporalInterval:
    """Inverse of normalize: unit-scale interval back to seconds."""
    if not (duration > 0.0) or not math.isfinite(duration):
        raise IntervalError(f"duration must be positive and finite, got {duration}")
    return TemporalInterval(iv.start * duration, iv.end * duration)


def clip_unit(iv: TemporalInterval) -> TemporalInterval:
    """Intersect an interval with [0, 1]; error if nothing of positive length is left."""
    start = max(0.0, iv.start)
    end = min(1.0, iv.end)
    if start >= end:
        raise IntervalError(f"interval [{iv.start}, {iv.end}) clips to nothing on [0, 1]")
    return TemporalInterval(start, end)


class Source(str, Enum):
    SSAD = "ssad"
    TAG = "tag"
    REFINED = "refined"


@dataclass(frozen=True)
class Proposal:
    interval: TemporalInterval
    score: float
    source: Source

    def __post_init__(self) -> None:
        score = float(self.score)
        if not math.isfinite(score) or score < 0.0 or score > 1.0:
            raise IntervalError(f"proposal score must be finite in [0, 1], got {self.score}")
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "source", Source(self.source))


def proposal_sort_key(p: Proposal) -> tuple[float, float, float]:
    """Global ranking order: score descending, ties by earlier start then shorter."""
    return (-p.score, p.interval.start, p.interval.length)


@dataclass(frozen=True)
class ProposalSet:
    """Scored, ranked proposals for one video. Always kept sorted."""

    video_id: str
    proposals: tuple[Proposal, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.proposals, key=proposal_sort_key))
        object.__setattr__(self, "proposals", ordered)

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self):
        return iter(self.proposals)

    def top(self, k: int) -> ProposalSet:
        return ProposalSet(self.video_id, self.proposals[:k])


class Subset(str, Enum):
    TRAINING = "training"
    VALIDATION = "validation"
    TESTING = "testing"


@dataclass(frozen=True)
class GroundTruthInstance:
    label: str
    interval: TemporalInterval


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    duration: float
    subset: Subset
    instances: tuple[GroundTruthInstance, ...] = ()

    def __post_init__(self) -> None:
        if not (float(self.duration) > 0.0):
            raise IntervalError(f"video {self.video_id}: duration must be > 0, got {self.duration}")
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "subset", Subset(self.subset))
        object.__setattr__(self, "instances", tuple(self.instances))
        for inst in self.instances:
            if inst.interval.start < 0.0 or inst.interval.end > self.duration:
                raise IntervalError(
                    f"video {self.video_id}: instance [{inst.interval.start}, "
                    f"{inst.interval.end}) outside [0, {self.duration}]"
                )


@dataclass(frozen=True)
class DatasetIndex:
    """All video records keyed by id, plus the ordered label vocabulary."""

    videos: dict[str, VideoRecord] = field(default_factory=dict)
    label_set: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        known = set(self.label_set)
        for rec in self.videos.values():
            for inst in rec.instances:
                if inst.label not in known:
                    raise IntervalError(
                        f"video {rec.video_id}: label {inst.label!r} not in label_set"
                    )

    def subset_videos(self, subset: Subset | str) -> list[VideoRecord]:
        subset = Subset(subset)
        return [self.videos[vid] for vid in sorted(self.videos) if self.videos[vid].subset == subset]
