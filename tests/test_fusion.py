import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pset, tiou
from oracles import brute_nms, brute_refine, loop_nms_keep, masked_tiou_matrix
from tapkit.core import ProposalSet, Source
from tapkit.errors import ConfigError
from tapkit.fusion import NmsConfig, RefineConfig, nms, refine


def _random_pset(rng, vid, n, source):
    rows = []
    for _ in range(n):
        s = float(rng.uniform(0, 50))
        e = s + float(rng.uniform(0.5, 30))
        rows.append((s, e, float(rng.uniform(0, 1))))
    return pset(vid, rows, source)


def _grid_rows(rng):
    n = int(rng.integers(0, 12))
    starts = rng.integers(0, 12, size=n)
    lengths = rng.integers(1, 10, size=n)
    scores = rng.integers(1, 5, size=n) / 4.0
    return [(float(s), float(s + k), float(c)) for s, k, c in zip(starts, lengths, scores)]


class TestRefine:
    CFG = RefineConfig()

    def test_high_overlap_replaces_boundaries(self):
        p_ssad = pset("v", [(0.0, 10.0, 0.8)])
        p_tag = pset("v", [(0.5, 10.0, 0.3)], Source.TAG)
        assert tiou((0, 10), (0.5, 10)) > 0.75
        out = refine(p_ssad, p_tag, self.CFG)
        assert len(out) == 1
        [p] = out
        assert (p.start, p.end) == (0.5, 10.0)
        assert p.score == 0.8  # keeps the anchor's score, not the tag score
        assert p.source is Source.REFINED

    def test_low_overlap_keeps_boundaries(self):
        p_ssad = pset("v", [(0.0, 10.0, 0.8)])
        p_tag = pset("v", [(5.0, 15.0, 0.9)], Source.TAG)
        out = refine(p_ssad, p_tag, self.CFG)
        [p] = out
        assert (p.start, p.end) == (0.0, 10.0)
        assert p.source is Source.SSAD

    def test_exact_threshold_keeps(self):
        # tiou([0,4), [1,4)) == 3/4 exactly; the comparison is strict
        for a, b in (((0.0, 4.0), (1.0, 4.0)), ((0.0, 8.0), (2.0, 8.0))):
            assert tiou(a, b) == 0.75
            out = refine(pset("v", [(*a, 0.5)]), pset("v", [(*b, 0.5)], Source.TAG), self.CFG)
            [p] = out
            assert (p.start, p.end) == a
            assert p.source is Source.SSAD

    def test_conflicting_claims_highest_iou_wins(self):
        p_ssad = pset("v", [(0.0, 10.0, 0.8)])
        p_tag = pset("v", [(0.5, 10.0, 0.2), (0.0, 9.0, 0.3)], Source.TAG)
        # iou 9.5/10.5 = 0.9048 beats 9/10 = 0.9
        out = refine(p_ssad, p_tag, self.CFG)
        [p] = out
        assert (p.start, p.end) == (0.5, 10.0)

    def test_conflicting_tie_earlier_start_wins(self):
        p_ssad = pset("v", [(0.0, 10.0, 0.8)])
        # both claimants at iou 9/10; [−?]: pick earlier start, then shorter
        p_tag = pset("v", [(1.0, 10.0, 0.2), (0.0, 9.0, 0.3)], Source.TAG)
        assert tiou((0, 10), (1, 10)) == tiou((0, 10), (0, 9))
        out = refine(p_ssad, p_tag, self.CFG)
        [p] = out
        assert (p.start, p.end) == (0.0, 9.0)

    def test_anchor_tie_earlier_start_then_shorter_wins(self):
        # p_t ties at tIoU 2/3 with an anchor containing it and one inside
        # it; the better-ranked anchor of each pair must lose the tie
        cfg = RefineConfig(0.6)
        for tag_iv, winner, loser in (((2.0, 8.0), (0.0, 9.0), (3.0, 7.0)),
                                      ((0.0, 6.0), (0.0, 4.0), (0.0, 9.0))):
            assert tiou(tag_iv, winner) == tiou(tag_iv, loser)
            p_ssad = pset("v", [(*winner, 0.1), (*loser, 0.9)])
            out = refine(p_ssad, pset("v", [(*tag_iv, 0.5)], Source.TAG), cfg)
            refined = {p.score: p.source for p in out}
            assert refined == {0.1: Source.REFINED, 0.9: Source.SSAD}

    def test_each_tag_claims_only_best_anchor(self):
        # p_t overlaps both anchors above threshold but only the max match counts
        p_ssad = pset("v", [(0.0, 10.0, 0.9), (0.5, 10.5, 0.1)])
        p_tag = pset("v", [(0.4, 10.0, 0.5)], Source.TAG)
        out = refine(p_ssad, p_tag, self.CFG)
        replaced = [p for p in out if p.source is Source.REFINED]
        assert len(replaced) == 1
        best = max(p_ssad, key=lambda p: tiou(p, (0.4, 10.0)))
        assert replaced[0].score == best.score

    def test_empty_tag_is_identity(self):
        p_ssad = pset("v", [(0.0, 10.0, 0.8), (3.0, 7.0, 0.2)])
        out = refine(p_ssad, ProposalSet("v"), self.CFG)
        assert list(out) == list(p_ssad)

    def test_count_and_scores_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p_ssad = _random_pset(rng, "v", int(rng.integers(1, 12)), Source.SSAD)
            p_tag = _random_pset(rng, "v", int(rng.integers(0, 8)), Source.TAG)
            out = refine(p_ssad, p_tag, self.CFG)
            assert len(out) == len(p_ssad)
            assert sorted(p.score for p in out) == sorted(p.score for p in p_ssad)

    def test_matches_oracle_on_grid_sets(self):
        # integer bounds make tIoU ties, exact-0.75 matches and contested
        # claims common; few score levels make rank ties common
        rng = np.random.default_rng(2)
        for _ in range(300):
            ssad_rows, tag_rows = _grid_rows(rng), _grid_rows(rng)
            threshold = float(rng.choice([0.5, 0.6, 0.75]))
            out = refine(pset("v", ssad_rows), pset("v", tag_rows, Source.TAG),
                         RefineConfig(threshold))
            got = [(p.start, p.end, p.score, p.source == Source.REFINED)
                   for p in out]
            assert got == brute_refine(ssad_rows, tag_rows, threshold)

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            RefineConfig(iou_threshold=0.0)
        with pytest.raises(ConfigError):
            RefineConfig(iou_threshold=1.0)


class TestNms:
    def test_worked_example(self):
        inp = pset("v", [(0.0, 10.0, 0.9), (1.0, 11.0, 0.8), (20.0, 30.0, 0.7)])
        out = nms(inp, NmsConfig(iou_threshold=0.5, max_per_video=100))
        got = [(p.start, p.end) for p in out]
        assert got == [(0.0, 10.0), (20.0, 30.0)]

    def test_exact_threshold_survives(self):
        # tiou == threshold is kept; suppression is strictly above
        inp = pset("v", [(0.0, 4.0, 0.9), (1.0, 4.0, 0.8)])
        out = nms(inp, NmsConfig(iou_threshold=0.75, max_per_video=100))
        assert len(out) == 2

    def test_duplicates_collapse_even_at_threshold_one(self):
        inp = pset("v", [(0.0, 4.0, 0.9), (0.0, 4.0, 0.8), (1.0, 4.0, 0.7)])
        out = nms(inp, NmsConfig(iou_threshold=1.0, max_per_video=100))
        got = [(p.start, p.end) for p in out]
        assert got == [(0.0, 4.0), (1.0, 4.0)]

    def test_empty_and_single(self):
        cfg = NmsConfig()
        assert len(nms(ProposalSet("v"), cfg)) == 0
        single = pset("v", [(0, 5, 0.5)])
        assert list(nms(single, cfg)) == list(single)

    def test_truncates_to_max(self):
        rows = [(10.0 * i, 10.0 * i + 5.0, 0.9 - 0.01 * i) for i in range(20)]
        out = nms(pset("v", rows), NmsConfig(iou_threshold=0.5, max_per_video=7))
        assert len(out) == 7
        # disjoint inputs: truncation keeps the best-scored ones
        assert [p.score for p in out] == sorted((r[2] for r in rows), reverse=True)[:7]

    def test_matches_oracle_on_small_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(0, 9))
            rows = []
            for _ in range(n):
                s = float(rng.uniform(0, 20))
                e = s + float(rng.uniform(0.5, 10))
                rows.append((s, e, float(rng.integers(1, 5)) / 5.0))  # frequent ties
            threshold = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
            max_keep = int(rng.integers(1, 10))
            out = nms(pset("v", rows), NmsConfig(threshold, max_keep))
            got = [(p.start, p.end, p.score) for p in out]
            assert got == brute_nms(rows, threshold, max_keep)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 150),
           st.sampled_from([0.3, 0.5, 0.8, 0.95, 1.0]), st.integers(1, 160))
    def test_matches_boolean_loop(self, seed, n, threshold, max_keep):
        # grid-valued rows, so exact duplicates and tied scores are frequent
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, 40, size=n) / 2.0
        ends = starts + rng.integers(1, 12, size=n) / 2.0
        ps = ProposalSet("v", starts, ends, rng.integers(0, 5, size=n) / 4.0)
        s, e = ps.starts, ps.ends
        suppress = masked_tiou_matrix(s, e, s, e) > threshold
        suppress |= (s[:, None] == s[None, :]) & (e[:, None] == e[None, :])
        want = ps.take(loop_nms_keep(s, e, suppress, max_keep))
        got = nms(ps, NmsConfig(threshold, max_keep))
        for column in ("starts", "ends", "scores", "sources"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            NmsConfig(iou_threshold=0.0)
        with pytest.raises(ConfigError):
            NmsConfig(max_per_video=0)
        NmsConfig(iou_threshold=1.0)  # closed at the top
