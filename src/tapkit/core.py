"""Interval algebra, temporal IoU and the shared proposal/annotation model.

Intervals are half-open [start, end) and zero-length intervals are invalid
everywhere. All time arithmetic is 64-bit floating point.

A ProposalSet is columnar: start, end, score and source arrays for one video,
validated and ranked as a whole. Proposal is only a row view of it, yielded
by iteration; ground truth keeps one TemporalInterval per instance.

tiou_matrix is the one interval kernel: refinement, NMS, target assignment,
AR-AN and AP all compare intervals through it, so the tIoU formula lives in
one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

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
    """Start and end arrays of a sequence of intervals (ground truth and
    localization entries), for tiou_matrix."""
    starts = np.fromiter((iv.start for iv in intervals), dtype=np.float64)
    ends = np.fromiter((iv.end for iv in intervals), dtype=np.float64)
    return starts, ends


class Source(IntEnum):
    """Where a proposal's boundaries came from, stored as uint8 in a set."""

    SSAD = 0
    TAG = 1
    REFINED = 2


class Proposal(NamedTuple):
    """One row of a ProposalSet, as plain floats."""

    start: float
    end: float
    score: float
    source: Source


@dataclass(frozen=True, eq=False)
class ProposalSet:
    """Scored proposals for one video, held as columns and always ranked:
    score descending, ties by earlier start, then shorter, then input order.

    Construction checks every row at once (finite, start < end, score in
    [0, 1]) and raises IntervalError naming the first bad row. A scalar
    source applies to every row.
    """

    video_id: str
    starts: np.ndarray = field(default=(), repr=False)
    ends: np.ndarray = field(default=(), repr=False)
    scores: np.ndarray = field(default=(), repr=False)
    sources: np.ndarray = field(default=Source.SSAD, repr=False)

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        sources = np.broadcast_to(np.asarray(self.sources, dtype=np.uint8), starts.shape)
        bad = ~(np.isfinite(starts) & np.isfinite(ends) & (starts < ends)
                & (scores >= 0.0) & (scores <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise IntervalError(
                f"row {i}: need finite start < end and a score in [0, 1], "
                f"got [{starts[i]}, {ends[i]}) scored {scores[i]}")
        order = np.lexsort((ends - starts, starts, -scores))
        for name, column in (("starts", starts), ("ends", ends), ("scores", scores),
                             ("sources", sources)):
            column = column[order]
            column.flags.writeable = False  # the ranking holds only if nothing edits a column
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return map(Proposal._make, zip(self.starts.tolist(), self.ends.tolist(),
                                       self.scores.tolist(), map(Source, self.sources.tolist())))

    def take(self, idx) -> ProposalSet:
        """The rows at idx (an index array, list or slice), ranked again."""
        return ProposalSet(self.video_id, self.starts[idx], self.ends[idx],
                           self.scores[idx], self.sources[idx])


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
