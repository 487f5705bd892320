import warnings

import numpy as np
import pytest

from conftest import pset, recall
from oracles import brute_ap, brute_ar_an, brute_average_recall, brute_recall, oracle_tiou
from tapkit.core import (
    DatasetIndex,
    GroundTruthInstance,
    ProposalSet,
    Subset,
    TemporalInterval,
    VideoRecord,
)
from tapkit.errors import MetricError
from tapkit.metrics import (
    ArAnCurve,
    ar_an,
    attach_labels,
    average_precision,
    eval_at_n,
    gt_intervals,
    mean_ap,
    tiou_grid,
    uniform_random_proposals,
)


def iv(s, e):
    return TemporalInterval(s, e)


def test_grid_is_exact():
    assert tiou_grid() == (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


class TestRecall:
    def test_perfect_proposal(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.9)])}
        gt = {"v": [iv(0.0, 10.0)]}
        assert recall(props, gt, an=1, threshold=0.95) == 1.0

    def test_top_an_cutoff(self):
        # the matching proposal is ranked second, so AN=1 misses it
        props = {"v": pset("v", [(50.0, 60.0, 0.9), (0.0, 10.0, 0.5)])}
        gt = {"v": [iv(0.0, 10.0)]}
        assert recall(props, gt, an=1, threshold=0.5) == 0.0
        assert recall(props, gt, an=2, threshold=0.5) == 1.0

    def test_pooled_over_videos(self):
        props = {
            "a": pset("a", [(0.0, 10.0, 0.9)]),
            "b": pset("b", [(90.0, 95.0, 0.9)]),
        }
        gt = {"a": [iv(0.0, 10.0), iv(20.0, 30.0)], "b": [iv(0.0, 5.0)]}
        # 1 of 3 pooled instances recalled
        assert recall(props, gt, an=5, threshold=0.5) == pytest.approx(1 / 3)

    def test_video_without_proposals_counts_misses(self):
        gt = {"a": [iv(0.0, 10.0)], "b": [iv(0.0, 5.0)]}
        props = {"a": pset("a", [(0.0, 10.0, 0.9)])}
        assert recall(props, gt, an=1, threshold=0.5) == 0.5

    def test_no_gt_rejected(self):
        with pytest.raises(MetricError):
            recall({}, {"v": []}, an=1, threshold=0.5)

    def test_bad_args(self):
        gt = {"v": [iv(0, 1)]}
        with pytest.raises(MetricError):
            recall({}, gt, an=0, threshold=0.5)
        with pytest.raises(MetricError):
            recall({}, gt, an=1, threshold=0.0)
        with pytest.raises(MetricError):
            recall({}, gt, an=1, threshold=1.1)


class TestAverageRecall:
    def test_half_grid_match(self):
        # proposal overlaps gt at tiou 0.72: thresholds 0.50..0.70 hit (5 of 10)
        props = {"v": pset("v", [(0.0, 7.2, 0.9)])}
        gt = {"v": [iv(0.0, 10.0)]}
        value = 0.72
        hits = sum(1 for t in tiou_grid() if value >= t)
        assert hits == 5
        assert ar_an(props, gt, an_max=1).ar_at(1) == 0.5


class TestArAn:
    def test_two_instance_curve(self):
        # rank 1 recalls one instance everywhere, rank 2 adds the other
        props = {"v": pset("v", [(0.0, 10.0, 0.9), (20.0, 30.0, 0.8)])}
        gt = {"v": [iv(0.0, 10.0), iv(20.0, 30.0)]}
        curve = ar_an(props, gt, an_max=2)
        assert curve.ar == (0.5, 1.0)
        assert curve.area == 0.75
        assert curve.ar_at(1) == 0.5 and curve.ar_at(2) == 1.0

    def test_matches_average_recall_bitwise(self):
        # AR at each AN is the grid mean of the single-threshold recalls
        rng = np.random.default_rng(0)
        for _ in range(20):
            props, gt = _random_instance(rng)
            curve = ar_an(props, gt, an_max=4)
            for an in range(1, 5):
                per_threshold = [recall(props, gt, an, t) for t in tiou_grid()]
                assert curve.ar_at(an) == float(np.mean(per_threshold))

    def test_matches_scalar_loop_reference(self):
        # integer bounds put tIoU values exactly on grid thresholds
        rng = np.random.default_rng(5)
        for _ in range(100):
            props, gt = {}, {}
            for vid in ("a", "b", "c"):
                rows = []
                for _ in range(int(rng.integers(0, 9))):
                    s = float(rng.integers(0, 16))
                    rows.append((s, s + float(rng.integers(1, 9)), float(rng.integers(1, 4)) / 4))
                props[vid] = pset(vid, rows)
                gt[vid] = [iv(s, s + float(k)) for s, k in
                           zip(rng.integers(0, 16, size=2), rng.integers(1, 9, size=2))]
            an_max = int(rng.integers(1, 10))
            curve = ar_an(props, gt, an_max=an_max)
            assert curve == _loop_ar_an(props, gt, an_max)

    def test_ar_at_bounds(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.9)])}
        gt = {"v": [iv(0.0, 10.0)]}
        curve = ar_an(props, gt, an_max=3)
        with pytest.raises(MetricError):
            curve.ar_at(0)
        with pytest.raises(MetricError):
            curve.ar_at(4)

    def test_no_proposals_flat_zero(self):
        curve = ar_an({}, {"v": [iv(0.0, 10.0)]}, an_max=3)
        assert curve.ar == (0.0, 0.0, 0.0) and curve.area == 0.0


class TestUniformBaseline:
    def _index(self):
        videos = {
            "a": VideoRecord("a", 30.0, Subset.VALIDATION,
                             (GroundTruthInstance("x", iv(5.0, 10.0)),)),
            "b": VideoRecord("b", 60.0, Subset.VALIDATION),
            "c": VideoRecord("c", 45.0, Subset.TRAINING),
        }
        return DatasetIndex(videos=videos, label_set=("x",))

    def test_deterministic_and_bounded(self):
        index = self._index()
        a = uniform_random_proposals(index, Subset.VALIDATION, count=20, seed=3)
        b = uniform_random_proposals(index, Subset.VALIDATION, count=20, seed=3)
        assert set(a) == {"a", "b"}
        assert all(list(a[vid]) == list(b[vid]) for vid in a)
        for vid, ps in a.items():
            assert len(ps) == 20
            for p in ps:
                assert 0.0 <= p.start < p.end <= index.videos[vid].duration

    def test_seed_matters(self):
        index = self._index()
        a = uniform_random_proposals(index, Subset.VALIDATION, count=5, seed=1)
        b = uniform_random_proposals(index, Subset.VALIDATION, count=5, seed=2)
        assert any(list(a[vid]) != list(b[vid]) for vid in a)


class TestAttachLabels:
    def test_full_confidence_keeps_scores(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.8), (5.0, 15.0, 0.4)])}
        loc = attach_labels(props, {"v": [("jump", 1.0)]})
        assert loc["v"] == [("jump", iv(0.0, 10.0), 0.8), ("jump", iv(5.0, 15.0), 0.4)]

    def test_confidence_scales_scores(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.8)])}
        loc = attach_labels(props, {"v": [("jump", 0.5)]})
        assert loc["v"][0][2] == 0.4

    def test_top_c_duplicates_proposals(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.8), (5.0, 15.0, 0.4)])}
        cls = {"v": [("jump", 0.9), ("swim", 0.6), ("dive", 0.5)]}
        loc = attach_labels(props, cls, top_c=2)
        assert len(loc["v"]) == 4
        assert {e[0] for e in loc["v"]} == {"jump", "swim"}
        scores = [e[2] for e in loc["v"]]
        assert scores == sorted(scores, reverse=True)

    def test_empty_proposals_allowed(self):
        loc = attach_labels({"v": ProposalSet("v")}, {})
        assert loc["v"] == []

    def test_missing_classification_rejected(self):
        props = {"v": pset("v", [(0.0, 10.0, 0.8)])}
        with pytest.raises(MetricError, match="v"):
            attach_labels(props, {})


class TestAveragePrecision:
    def test_perfect(self):
        preds = [("v", iv(0.0, 10.0), 0.9)]
        assert average_precision(preds, {"v": [iv(0.0, 10.0)]}, 0.5) == 1.0

    def test_miss_then_hit(self):
        # false positive outranks the true positive: precision at the hit is 1/2
        preds = [("v", iv(50.0, 60.0), 0.9), ("v", iv(0.0, 10.0), 0.5)]
        assert average_precision(preds, {"v": [iv(0.0, 10.0)]}, 0.5) == 0.5

    def test_hit_then_miss_keeps_full_ap(self):
        preds = [("v", iv(0.0, 10.0), 0.9), ("v", iv(50.0, 60.0), 0.5)]
        assert average_precision(preds, {"v": [iv(0.0, 10.0)]}, 0.5) == 1.0

    def test_two_gt_one_pred(self):
        gt = {"v": [iv(0.0, 10.0), iv(20.0, 30.0)]}
        preds = [("v", iv(0.0, 10.0), 0.9)]
        assert average_precision(preds, gt, 0.5) == 0.5

    def test_gt_matched_once(self):
        # duplicate detections of one instance: the second is a false positive
        gt = {"v": [iv(0.0, 10.0)]}
        preds = [("v", iv(0.0, 10.0), 0.9), ("v", iv(0.0, 10.0), 0.8)]
        assert average_precision(preds, gt, 0.5) == 1.0

    def test_no_predictions(self):
        assert average_precision([], {"v": [iv(0, 1)]}, 0.5) == 0.0

    def test_no_gt_rejected(self):
        with pytest.raises(MetricError):
            average_precision([("v", iv(0, 1), 0.5)], {}, 0.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            props, gt = _random_instance(rng)
            preds = [
                (vid, iv(p.start, p.end), p.score)
                for vid, ps in props.items()
                for p in ps
            ]
            gt_plain = {vid: [(g.start, g.end) for g in rows] for vid, rows in gt.items()}
            preds_plain = [(vid, p.start, p.end, s) for vid, p, s in preds]
            for threshold in (0.3, 0.5, 0.75):
                got = average_precision(preds, gt, threshold)
                want = brute_ap(preds_plain, gt_plain, threshold)
                assert got == pytest.approx(want, abs=1e-12)


class TestMeanAp:
    def _fixture(self):
        videos = {
            "a": VideoRecord("a", 100.0, Subset.VALIDATION, (
                GroundTruthInstance("jump", iv(0.0, 10.0)),
                GroundTruthInstance("swim", iv(50.0, 60.0)),
            )),
            "b": VideoRecord("b", 100.0, Subset.VALIDATION, (
                GroundTruthInstance("jump", iv(20.0, 40.0)),
            )),
        }
        index = DatasetIndex(videos=videos, label_set=("dive", "jump", "swim"))
        loc = {
            "a": [("jump", iv(0.0, 10.0), 0.9), ("swim", iv(50.0, 60.0), 0.8)],
            "b": [("jump", iv(20.0, 40.0), 0.7)],
        }
        return index, loc

    def test_perfect_predictions(self):
        index, loc = self._fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert mean_ap(loc, index, 0.5) == 1.0

    def test_zero_gt_class_warns_and_is_excluded(self):
        index, loc = self._fixture()
        with pytest.warns(RuntimeWarning, match="dive"):
            value = mean_ap(loc, index, 0.5)
        assert value == 1.0  # mean over jump and swim only

    def test_subset_filter(self):
        index, loc = self._fixture()
        with warnings.catch_warnings():
            # no labels have validation gt here, so every class warns first
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(MetricError):
                mean_ap(loc, index, 0.5, subset=Subset.TRAINING)


class TestEvalAtN:
    def test_identity_when_n_large(self):
        index, loc = TestMeanAp()._fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid_mean = float(np.mean([mean_ap(loc, index, t) for t in tiou_grid()]))
            assert eval_at_n(loc, index, 100) == grid_mean

    def test_truncation_drops_low_scores(self):
        videos = {
            "a": VideoRecord("a", 100.0, Subset.VALIDATION, (
                GroundTruthInstance("jump", iv(0.0, 10.0)),
            )),
        }
        index = DatasetIndex(videos=videos, label_set=("jump",))
        # the matching entry is ranked second within the video
        loc = {"a": [("jump", iv(40.0, 80.0), 0.9), ("jump", iv(0.0, 10.0), 0.5)]}
        assert eval_at_n(loc, index, 1, grid=(0.5,)) == 0.0
        assert eval_at_n(loc, index, 2, grid=(0.5,)) == 0.5

    def test_bad_n(self):
        index, loc = TestMeanAp()._fixture()
        with pytest.raises(MetricError):
            eval_at_n(loc, index, 0)


class TestGtIntervals:
    def test_filters_subset(self):
        videos = {
            "a": VideoRecord("a", 10.0, Subset.VALIDATION,
                             (GroundTruthInstance("x", iv(1.0, 2.0)),)),
            "b": VideoRecord("b", 10.0, Subset.TRAINING,
                             (GroundTruthInstance("x", iv(3.0, 4.0)),)),
        }
        index = DatasetIndex(videos=videos, label_set=("x",))
        gt = gt_intervals(index, Subset.VALIDATION)
        assert set(gt) == {"a"}
        assert gt["a"] == [iv(1.0, 2.0)]


def _loop_ar_an(proposals, gt, an_max):
    """ar_an as one scalar tIoU at a time: a running best per instance, then
    the first rank reaching each threshold."""
    grid = tiou_grid()
    total = sum(len(v) for v in gt.values())
    hits = np.zeros((an_max + 1, len(grid)), dtype=np.int64)
    for vid, intervals in gt.items():
        kept = list(proposals[vid])[:an_max] if vid in proposals else ()
        for g in intervals:
            best = 0.0
            prefix = np.empty(len(kept), dtype=np.float64)
            for r, p in enumerate(kept):
                best = max(best, oracle_tiou((p.start, p.end), (g.start, g.end)))
                prefix[r] = best
            for ti, t in enumerate(grid):
                rank = int(np.searchsorted(prefix, t, side="left"))
                if rank < len(kept):
                    hits[rank + 1, ti] += 1
    cum = np.cumsum(hits, axis=0)
    ar = tuple(float(np.mean(cum[an] / total)) for an in range(1, an_max + 1))
    return ArAnCurve(an_max, ar, float(np.mean(np.asarray(ar))))


def _random_instance(rng):
    """Small random (proposals, gt) maps mirroring the oracle input shape."""
    vids = [f"v{k}" for k in range(int(rng.integers(1, 4)))]
    props = {}
    gt = {}
    total_gt = 0
    for vid in vids:
        rows = []
        for _ in range(int(rng.integers(0, 7))):
            s = float(rng.uniform(0, 40))
            e = s + float(rng.uniform(1, 20))
            rows.append((s, e, float(rng.integers(0, 11)) / 10.0))
        if rows:
            props[vid] = pset(vid, rows)
        spans = []
        for _ in range(int(rng.integers(0, 3))):
            s = float(rng.uniform(0, 40))
            spans.append(iv(s, s + float(rng.uniform(1, 20))))
        gt[vid] = spans
        total_gt += len(spans)
    if total_gt == 0:
        gt[vids[0]] = [iv(0.0, 5.0)]
    return props, gt


class TestOracleEquivalence:
    def test_recall_family(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            props, gt = _random_instance(rng)
            plain_props = {
                vid: [(p.start, p.end, p.score) for p in ps]
                for vid, ps in props.items()
            }
            plain_gt = {vid: [(g.start, g.end) for g in rows] for vid, rows in gt.items()}
            an = int(rng.integers(1, 7))
            threshold = float(rng.choice(tiou_grid()))
            assert recall(props, gt, an, threshold) == brute_recall(plain_props, plain_gt, an, threshold)
            curve = ar_an(props, gt, an_max=an)
            assert curve.ar_at(an) == pytest.approx(
                brute_average_recall(plain_props, plain_gt, an), abs=1e-12)
            want_ar, want_area = brute_ar_an(plain_props, plain_gt, an)
            assert list(curve.ar) == pytest.approx(want_ar, abs=1e-12)
            assert curve.area == pytest.approx(want_area, abs=1e-12)
