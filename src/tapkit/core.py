"""Interval algebra, temporal IoU and the shared proposal/annotation model.

Intervals are half-open [start, end) and zero-length intervals are invalid
everywhere. All time arithmetic is 64-bit floating point.

Proposals and ground truth are both columnar. A ProposalSet holds start,
end, score and source arrays for one video, validated and ranked as a whole;
the video's id is the key it is stored under, not a field. Proposal is only
a row view of it, yielded by iteration. The package reads the columns;
perfbench's tracer iterates rows to count refined ones. A VideoRecord holds
its instances' labels, starts and ends, validated once and kept in input
order. A DatasetIndex holds the records and derives its label vocabulary
from them.

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

from .errors import DataError


def tiou_matrix(starts_a, ends_a, starts_b, ends_b) -> np.ndarray:
    """Temporal IoU of every pair: a (len_a, len_b) float64 matrix.

    Intersection is min(ends) - max(starts) and union is
    (len(a) + len(b)) - intersection, so disjoint or touching pairs score
    exactly 0 regardless of the gap between them. The operations are the
    scalar formula's, in the same order, on float64 arrays. Intervals of
    positive, finite length give union > 0, so a non-positive intersection
    (-0.0 included) scores +0.0.
    """
    sa = np.asarray(starts_a, dtype=np.float64)[:, None]
    ea = np.asarray(ends_a, dtype=np.float64)[:, None]
    sb = np.asarray(starts_b, dtype=np.float64)[None, :]
    eb = np.asarray(ends_b, dtype=np.float64)[None, :]
    inter = np.minimum(ea, eb) - np.maximum(sa, sb)
    union = ((ea - sa) + (eb - sb)) - inter
    # maximum(0.0, -0.0) may return either zero; + 0.0 turns -0.0 into +0.0
    return (np.maximum(inter, 0.0) + 0.0) / union


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

    Construction checks every row at once (finite, start < end, a length
    end - start that float64 holds, score in [0, 1]) and raises
    DataError naming the first bad row. A scalar source applies to
    every row.
    """

    starts: np.ndarray = field(default=(), repr=False)
    ends: np.ndarray = field(default=(), repr=False)
    scores: np.ndarray = field(default=(), repr=False)
    sources: np.ndarray = field(default=Source.SSAD, repr=False)

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        sources = np.broadcast_to(np.asarray(self.sources, dtype=np.uint8), starts.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            lengths = ends - starts
        bad = ~(np.isfinite(lengths) & (starts < ends) & (scores >= 0.0) & (scores <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(
                f"row {i}: need finite start < end with a finite length and a score in "
                f"[0, 1], got [{starts[i]}, {ends[i]}) scored {scores[i]}")
        order = np.lexsort((lengths, starts, -scores))
        for name, column in (("starts", starts), ("ends", ends), ("scores", scores),
                             ("sources", sources)):
            column = column[order]
            column.flags.writeable = False  # the ranking holds only if nothing edits a column
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.starts)

    # perfbench's tracer counts refined rows by iterating a set
    def __iter__(self):
        return map(Proposal._make, zip(self.starts.tolist(), self.ends.tolist(),
                                       self.scores.tolist(), map(Source, self.sources.tolist())))

    def take(self, idx) -> ProposalSet:
        """The rows at idx (an index array, list or slice), ranked again."""
        return ProposalSet(self.starts[idx], self.ends[idx], self.scores[idx], self.sources[idx])


class Subset(str, Enum):
    TRAINING = "training"
    VALIDATION = "validation"
    TESTING = "testing"


@dataclass(frozen=True, eq=False)
class VideoRecord:
    """One annotated video. Its ground truth is held as columns in input
    order: labels, and read-only float64 starts and ends in seconds.

    Construction checks every instance once (0 <= start < end <= duration;
    the finite duration also rules out NaN and infinities) and raises
    DataError naming the first bad instance.
    """

    video_id: str
    duration: float
    subset: Subset
    labels: tuple[str, ...] = ()
    starts: np.ndarray = field(default=(), repr=False)
    ends: np.ndarray = field(default=(), repr=False)

    def __post_init__(self) -> None:
        duration = float(self.duration)
        if not 0.0 < duration < math.inf:
            raise DataError(f"video {self.video_id}: duration must be finite and > 0, got {self.duration}")
        labels = tuple(self.labels)
        # plain floats: one chained comparison per instance is cheaper than
        # numpy calls on the few instances a video has
        starts = [float(s) for s in self.starts]
        ends = [float(e) for e in self.ends]
        if not len(labels) == len(starts) == len(ends):
            raise DataError(f"video {self.video_id}: {len(labels)} labels, "
                            f"{len(starts)} starts and {len(ends)} ends")
        for i, (start, end) in enumerate(zip(starts, ends)):
            if not 0.0 <= start < end <= duration:
                raise DataError(f"instance {i}: need 0 <= start < end <= {duration}, "
                                f"got [{start}, {end})")
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "subset", Subset(self.subset))
        object.__setattr__(self, "labels", labels)
        for name, column in (("starts", starts), ("ends", ends)):
            column = np.array(column, dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)


@dataclass(frozen=True, eq=False)
class DatasetIndex:
    """All video records keyed by id. Like a record, an index compares by
    identity."""

    videos: dict[str, VideoRecord] = field(default_factory=dict)

    @property
    def label_set(self) -> tuple[str, ...]:
        """The label vocabulary: every label of the records' instances, sorted."""
        return tuple(sorted({label for rec in self.videos.values() for label in rec.labels}))

    def subset_videos(self, subset: Subset | str) -> list[VideoRecord]:
        subset = Subset(subset)
        return [self.videos[vid] for vid in sorted(self.videos) if self.videos[vid].subset == subset]
