"""Boundary refinement and non-maximum suppression.

Refinement snaps anchor-shaped proposals onto grouped-actionness boundaries
when the two agree strongly (tIoU strictly above the threshold); NMS then
prunes near-duplicates for the final ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProposalSet, Source, tiou_matrix
from .errors import ConfigError


@dataclass(frozen=True)
class RefineConfig:
    iou_threshold: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")


NMS_PLACEMENTS = ("before", "after", "off")


@dataclass(frozen=True)
class NmsConfig:
    """NMS settings; placement is where the refine stage applies NMS:
    before refinement, after it, or off."""

    iou_threshold: float = 0.8
    max_per_video: int = 100
    placement: str = "after"

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must lie in (0, 1], got {self.iou_threshold}")
        if self.max_per_video < 1:
            raise ConfigError(f"max_per_video must be >= 1, got {self.max_per_video}")
        if self.placement not in NMS_PLACEMENTS:
            raise ConfigError(f"placement must be one of {NMS_PLACEMENTS}, got {self.placement!r}")


def refine(p_ssad: ProposalSet, p_tag: ProposalSet, cfg: RefineConfig) -> ProposalSet:
    """Replace boundaries of matched proposals, keeping their scores.

    Each grouped proposal p_t is matched to its highest-tIoU p_s (ties:
    earlier start, then shorter, then better ranked); the match only counts
    when that tIoU is strictly above the threshold. When several p_t claim
    the same p_s, the highest-tIoU claimant wins (ties: earlier start, then
    shorter, then better ranked). Output has exactly one entry per p_s.
    """
    if len(p_ssad) == 0 or len(p_tag) == 0:
        return p_ssad
    s_starts, s_ends = p_ssad.starts, p_ssad.ends
    t_starts, t_ends = p_tag.starts, p_tag.ends
    ious = tiou_matrix(t_starts, t_ends, s_starts, s_ends)
    best = ious.max(axis=1)
    # among a row's maxima the p_s with the least (start, length) wins,
    # then the earliest index: first maximum in that column order
    order = np.lexsort((s_ends - s_starts, s_starts))
    best_idx = order[np.argmax(ious[:, order] == best[:, None], axis=1)]
    # claimants ranked by (-tIoU, start, length); the stable sort keeps tag
    # rank order among full ties, and each p_s takes its first claimant
    claims = np.flatnonzero(best > cfg.iou_threshold)
    claims = claims[np.lexsort((t_ends[claims] - t_starts[claims], t_starts[claims],
                                -best[claims]))]
    won, first = np.unique(best_idx[claims], return_index=True)
    winners = claims[first]

    starts, ends, sources = s_starts.copy(), s_ends.copy(), p_ssad.sources.copy()
    starts[won], ends[won], sources[won] = t_starts[winners], t_ends[winners], Source.REFINED
    return ProposalSet(starts, ends, p_ssad.scores, sources)


def nms(pset: ProposalSet, cfg: NmsConfig) -> ProposalSet:
    """Greedy suppression in score order.

    A kept proposal discards every remaining one with tiou strictly above the
    threshold, plus exact interval duplicates (so theta = 1.0 still collapses
    copies). Output is truncated to max_per_video.
    """
    starts, ends = pset.starts, pset.ends
    suppress = tiou_matrix(starts, ends, starts, ends) > cfg.iou_threshold
    suppress |= (starts[:, None] == starts[None, :]) & (ends[:, None] == ends[None, :])
    # row i as the bytes of a Python int whose bit j is suppress[i, j]; every
    # row suppresses itself, as its own exact duplicate
    packed = np.packbits(suppress, axis=1, bitorder="little")
    width = packed.shape[1]
    packed = packed.tobytes()
    alive = (1 << len(pset)) - 1
    kept: list[int] = []
    while alive and len(kept) < cfg.max_per_video:
        i = (alive & -alive).bit_length() - 1  # the best-ranked survivor
        kept.append(i)
        alive &= ~int.from_bytes(packed[i * width : (i + 1) * width], "little")
    return pset.take(kept)
