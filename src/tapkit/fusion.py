"""Boundary refinement and non-maximum suppression.

Refinement snaps anchor-shaped proposals onto grouped-actionness boundaries
when the two agree strongly (tIoU strictly above the threshold); NMS then
prunes near-duplicates for the final ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Proposal, ProposalSet, Source, interval_bounds, tiou_matrix
from .errors import ConfigError, MetricError


@dataclass(frozen=True)
class RefineConfig:
    iou_threshold: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"refine iou_threshold must lie in (0, 1), got {self.iou_threshold}")


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.8
    max_per_video: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError(f"nms iou_threshold must lie in (0, 1], got {self.iou_threshold}")
        if self.max_per_video < 1:
            raise ConfigError(f"nms max_per_video must be >= 1, got {self.max_per_video}")


def refine(p_ssad: ProposalSet, p_tag: ProposalSet, cfg: RefineConfig) -> ProposalSet:
    """Replace boundaries of matched proposals, keeping their scores.

    Each grouped proposal p_t is matched to its highest-tIoU p_s (ties:
    earlier start, then shorter, then better ranked); the match only counts
    when that tIoU is strictly above the threshold. When several p_t claim
    the same p_s, the highest-tIoU claimant wins (ties: earlier start, then
    shorter, then better ranked). Output has exactly one entry per p_s.
    """
    if p_ssad.video_id != p_tag.video_id:
        raise MetricError(
            f"refine got proposal sets for different videos: "
            f"{p_ssad.video_id!r} vs {p_tag.video_id!r}"
        )
    ssad = list(p_ssad.proposals)
    tag = p_tag.proposals
    # winning claimant per p_s index: (tiou, p_t interval)
    claims: dict[int, tuple[float, object]] = {}
    if ssad and tag:
        s_starts, s_ends = interval_bounds([p.interval for p in ssad])
        t_starts, t_ends = interval_bounds([p.interval for p in tag])
        ious = tiou_matrix(t_starts, t_ends, s_starts, s_ends)
        best = ious.max(axis=1)
        # among a row's maxima the p_s with the least (start, length) wins,
        # then the earliest index: first maximum in that column order
        order = np.lexsort((s_ends - s_starts, s_starts))
        best_idx = order[np.argmax(ious[:, order] == best[:, None], axis=1)]
        for t in np.flatnonzero(best > cfg.iou_threshold):
            p_t, idx, value = tag[t], int(best_idx[t]), float(best[t])
            held = claims.get(idx)
            if held is not None:
                held_iou, held_iv = held
                if value < held_iou:
                    continue
                if value == held_iou and (
                    (p_t.interval.start, p_t.interval.length)
                    >= (held_iv.start, held_iv.length)
                ):
                    continue
            claims[idx] = (value, p_t.interval)

    out = []
    for idx, p_s in enumerate(ssad):
        claim = claims.get(idx)
        if claim is None:
            out.append(p_s)
        else:
            out.append(Proposal(claim[1], p_s.score, Source.REFINED))
    return ProposalSet(p_ssad.video_id, tuple(out))


def nms(pset: ProposalSet, cfg: NmsConfig) -> ProposalSet:
    """Greedy suppression in score order.

    A kept proposal discards every remaining one with tiou strictly above the
    threshold, plus exact interval duplicates (so theta = 1.0 still collapses
    copies). Output is truncated to max_per_video.
    """
    props = pset.proposals
    starts, ends = interval_bounds([p.interval for p in props])
    suppress = tiou_matrix(starts, ends, starts, ends) > cfg.iou_threshold
    suppress |= (starts[:, None] == starts[None, :]) & (ends[:, None] == ends[None, :])
    alive = np.ones(len(props), dtype=bool)
    kept: list[Proposal] = []
    for i in range(len(props)):
        if len(kept) >= cfg.max_per_video:
            break
        if alive[i]:
            kept.append(props[i])
            alive &= ~suppress[i]
    return ProposalSet(pset.video_id, tuple(kept))
