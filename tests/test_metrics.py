import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import average_precision, gt_records, pset, recall
from oracles import (
    brute_ap,
    brute_ar_an,
    brute_average_recall,
    brute_mean_ap,
    brute_recall,
    loop_random_intervals,
    oracle_tiou,
)
from tapkit.core import ProposalSet, Subset, VideoRecord, subset_videos
from tapkit.errors import ConfigError, DataError
from tapkit.metrics import (
    TIOU_GRID,
    ArAnCurve,
    _random_intervals,
    ar_an,
    attach_labels,
    mean_ap,
    uniform_random_proposals,
)
from tapkit.pipeline import EvalOptions, load_config
from tapkit.util import KEY_BASELINE, rng_for


def _bits(column):
    return np.asarray(column, dtype=np.float64).tobytes()


def _record(vid, rows, duration=100.0, subset=Subset.VALIDATION):
    """A record from (label, start, end) rows."""
    return VideoRecord(vid, duration, subset, *zip(*rows))


def test_grid_is_exact():
    assert TIOU_GRID == (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


class TestRecall:
    def test_perfect_proposal(self):
        props = {"v": pset([(0.0, 10.0, 0.9)])}
        gt = {"v": [(0.0, 10.0)]}
        assert recall(props, gt, an=1, threshold=0.95) == 1.0

    def test_top_an_cutoff(self):
        # the matching proposal is ranked second, so AN=1 misses it
        props = {"v": pset([(50.0, 60.0, 0.9), (0.0, 10.0, 0.5)])}
        gt = {"v": [(0.0, 10.0)]}
        assert recall(props, gt, an=1, threshold=0.5) == 0.0
        assert recall(props, gt, an=2, threshold=0.5) == 1.0

    def test_pooled_over_videos(self):
        props = {
            "a": pset([(0.0, 10.0, 0.9)]),
            "b": pset([(90.0, 95.0, 0.9)]),
        }
        gt = {"a": [(0.0, 10.0), (20.0, 30.0)], "b": [(0.0, 5.0)]}
        # 1 of 3 pooled instances recalled
        assert recall(props, gt, an=5, threshold=0.5) == pytest.approx(1 / 3)

    def test_video_without_proposals_counts_misses(self):
        gt = {"a": [(0.0, 10.0)], "b": [(0.0, 5.0)]}
        props = {"a": pset([(0.0, 10.0, 0.9)])}
        assert recall(props, gt, an=1, threshold=0.5) == 0.5

    def test_no_gt_rejected(self):
        with pytest.raises(DataError, match="recall undefined: no ground-truth instances"):
            recall({}, {"v": []}, an=1, threshold=0.5)

    def test_bad_args(self):
        # ar_an trusts its an_max: eval.an_max is checked where it enters
        with pytest.raises(ConfigError, match="eval.an_max must be >= 1"):
            load_config(None, ["eval.an_max=0"], None, None)


class TestAverageRecall:
    def test_half_grid_match(self):
        # proposal overlaps gt at tiou 0.72: thresholds 0.50..0.70 hit (5 of 10)
        props = {"v": pset([(0.0, 7.2, 0.9)])}
        gt = {"v": [(0.0, 10.0)]}
        value = 0.72
        hits = sum(1 for t in TIOU_GRID if value >= t)
        assert hits == 5
        assert ar_an(props, gt_records(gt), an_max=1).ar_at(1) == 0.5


class TestArAn:
    def test_two_instance_curve(self):
        # rank 1 recalls one instance everywhere, rank 2 adds the other
        props = {"v": pset([(0.0, 10.0, 0.9), (20.0, 30.0, 0.8)])}
        gt = {"v": [(0.0, 10.0), (20.0, 30.0)]}
        curve = ar_an(props, gt_records(gt), an_max=2)
        assert curve.ar == (0.5, 1.0)
        assert curve.area == 0.75
        assert curve.ar_at(1) == 0.5 and curve.ar_at(2) == 1.0

    def test_matches_average_recall_bitwise(self):
        # AR at each AN is the grid mean of the single-threshold recalls
        rng = np.random.default_rng(0)
        for _ in range(20):
            props, gt = _random_instance(rng)
            curve = ar_an(props, gt_records(gt), an_max=4)
            for an in range(1, 5):
                per_threshold = [recall(props, gt, an, t) for t in TIOU_GRID]
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
                props[vid] = pset(rows)
                gt[vid] = [(float(s), s + float(k)) for s, k in
                           zip(rng.integers(0, 16, size=2), rng.integers(1, 9, size=2))]
            an_max = int(rng.integers(1, 10))
            curve = ar_an(props, gt_records(gt), an_max=an_max)
            assert curve == _loop_ar_an(props, gt, an_max)

    def test_ar_at_bounds(self):
        # ar_at reads AN 1..an_max; EvalOptions keeps every eval.ar_at in range
        for ar_at in ((0,), (4,)):
            with pytest.raises(ConfigError, match=r"eval.ar_at values must lie in 1\.\.3"):
                load_config(None, ["eval.an_max=3", f"eval.ar_at={list(ar_at)}"], None, None)

    def test_counts_only_the_given_records(self):
        # eval-prop passes one subset's records; other videos' gt is not counted
        videos = {
            "a": _record("a", [("x", 1.0, 2.0)], duration=10.0),
            "b": _record("b", [("x", 3.0, 4.0)], duration=10.0, subset=Subset.TRAINING),
        }
        props = {"a": pset([(1.0, 2.0, 0.9)])}
        curve = ar_an(props, subset_videos(videos, Subset.VALIDATION), an_max=1)
        assert curve.ar == (1.0,)

    def test_no_proposals_flat_zero(self):
        curve = ar_an({}, gt_records({"v": [(0.0, 10.0)]}), an_max=3)
        assert curve.ar == (0.0, 0.0, 0.0) and curve.area == 0.0


class TestUniformBaseline:
    def _videos(self):
        return {
            "a": _record("a", [("x", 5.0, 10.0)], duration=30.0),
            "b": VideoRecord("b", 60.0, Subset.VALIDATION),
            "c": VideoRecord("c", 45.0, Subset.TRAINING),
        }

    def test_deterministic_and_bounded(self):
        videos = self._videos()
        records = subset_videos(videos, Subset.VALIDATION)
        a = uniform_random_proposals(records, count=20, seed=3)
        b = uniform_random_proposals(records, count=20, seed=3)
        assert set(a) == {"a", "b"}
        assert all(list(a[vid]) == list(b[vid]) for vid in a)
        for vid, ps in a.items():
            assert len(ps) == 20
            for p in ps:
                assert 0.0 <= p.start < p.end <= videos[vid].duration

    def test_seed_matters(self):
        records = subset_videos(self._videos(), Subset.VALIDATION)
        a = uniform_random_proposals(records, count=5, seed=1)
        b = uniform_random_proposals(records, count=5, seed=2)
        assert any(list(a[vid]) != list(b[vid]) for vid in a)

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_matches_one_draw_at_a_time(self, seed):
        durations = {"a": 30.0, "b": 60.0, "d": 0.1 + 0.2, "e": 1e-300, "f": 7.25}
        videos = {vid: VideoRecord(vid, d, Subset.VALIDATION) for vid, d in durations.items()}
        got = uniform_random_proposals(subset_videos(videos, Subset.VALIDATION), count=37,
                                       seed=seed)
        rng = rng_for(seed, KEY_BASELINE)
        for vid in sorted(durations):
            want = ProposalSet(*loop_random_intervals(rng, durations[vid], 37))
            for column in ("starts", "ends", "scores"):
                assert getattr(got[vid], column).tobytes() == getattr(want, column).tobytes()

    class _Stream:
        """A stand-in generator that hands out a fixed list of doubles."""

        def __init__(self, doubles):
            self.doubles = list(doubles)
            self.used = 0

        def _take(self, n):
            out = self.doubles[self.used : self.used + n]
            assert len(out) == n, "stream exhausted"
            self.used += n
            return out

        def random(self, size):
            return np.array(self._take(size))

        def uniform(self, low, high, size=None):
            # Generator.uniform: low + (high - low) * next_double
            out = [low + (high - low) * u for u in self._take(1 if size is None else size)]
            return out[0] if size is None else np.array(out)

    @pytest.mark.parametrize("tied_at", [0, 1, 3])
    def test_coinciding_pair_is_redrawn_in_stream_order(self, tied_at):
        # the pair of interval tied_at scales to one point; so does its first
        # redraw when tied_at is 1, so that the redraw loop runs twice
        doubles = list(np.random.default_rng(tied_at).uniform(size=40))
        doubles[3 * tied_at + 1] = doubles[3 * tied_at]
        if tied_at == 1:
            doubles[3 * tied_at + 3] = doubles[3 * tied_at + 2]
        got_stream, want_stream = self._Stream(doubles), self._Stream(doubles)
        got = _random_intervals(got_stream, 12.5, 4)
        want = loop_random_intervals(want_stream, 12.5, 4)
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w)
        assert got_stream.used == want_stream.used
        redraws = 2 if tied_at == 1 else 1
        assert want_stream.used == 3 * 4 + 2 * redraws


class TestAttachLabels:
    def test_full_confidence_keeps_scores(self):
        props = {"v": pset([(0.0, 10.0, 0.8), (5.0, 15.0, 0.4)])}
        loc = attach_labels(props, {"v": [("jump", 1.0)]}, top_c=1)
        assert loc["v"] == [("jump", 0.0, 10.0, 0.8), ("jump", 5.0, 15.0, 0.4)]

    def test_confidence_scales_scores(self):
        props = {"v": pset([(0.0, 10.0, 0.8)])}
        loc = attach_labels(props, {"v": [("jump", 0.5)]}, top_c=1)
        assert loc["v"][0][3] == 0.4

    def test_top_c_duplicates_proposals(self):
        props = {"v": pset([(0.0, 10.0, 0.8), (5.0, 15.0, 0.4)])}
        cls = {"v": [("jump", 0.9), ("swim", 0.6), ("dive", 0.5)]}
        loc = attach_labels(props, cls, top_c=2)
        assert len(loc["v"]) == 4
        assert {e[0] for e in loc["v"]} == {"jump", "swim"}
        scores = [e[3] for e in loc["v"]]
        assert scores == sorted(scores, reverse=True)

    def test_empty_proposals_allowed(self):
        loc = attach_labels({"v": ProposalSet()}, {}, top_c=1)
        assert loc["v"] == []

    def test_missing_classification_rejected(self):
        props = {"v": pset([(0.0, 10.0, 0.8)])}
        with pytest.raises(DataError, match="v"):
            attach_labels(props, {}, top_c=1)

    def test_empty_classification_gives_no_entries(self):
        # synth writes [] for a video without instances: no class, no entries
        props = {"v": pset([(0.0, 10.0, 0.8)]), "w": pset([(1.0, 2.0, 0.5)])}
        loc = attach_labels(props, {"v": [], "w": [("jump", 1.0)]}, top_c=1)
        assert loc == {"v": [], "w": [("jump", 1.0, 2.0, 0.5)]}


class TestAveragePrecision:
    def test_perfect(self):
        preds = [("v", 0.0, 10.0, 0.9)]
        assert average_precision(preds, {"v": [(0.0, 10.0)]}, 0.5) == 1.0

    def test_miss_then_hit(self):
        # false positive outranks the true positive: precision at the hit is 1/2
        preds = [("v", 50.0, 60.0, 0.9), ("v", 0.0, 10.0, 0.5)]
        assert average_precision(preds, {"v": [(0.0, 10.0)]}, 0.5) == 0.5

    def test_hit_then_miss_keeps_full_ap(self):
        preds = [("v", 0.0, 10.0, 0.9), ("v", 50.0, 60.0, 0.5)]
        assert average_precision(preds, {"v": [(0.0, 10.0)]}, 0.5) == 1.0

    def test_two_gt_one_pred(self):
        gt = {"v": [(0.0, 10.0), (20.0, 30.0)]}
        preds = [("v", 0.0, 10.0, 0.9)]
        assert average_precision(preds, gt, 0.5) == 0.5

    def test_gt_matched_once(self):
        # duplicate detections of one instance: the second is a false positive
        gt = {"v": [(0.0, 10.0)]}
        preds = [("v", 0.0, 10.0, 0.9), ("v", 0.0, 10.0, 0.8)]
        assert average_precision(preds, gt, 0.5) == 1.0

    def test_tied_iou_takes_the_first_gt(self):
        # the first prediction overlaps both gts at tIoU 0.6 and takes the
        # first, so the second prediction's only match is already taken
        gt = {"v": [(0.0, 10.0), (5.0, 15.0)]}
        preds = [("v", 2.5, 12.5, 0.9), ("v", 0.0, 10.0, 0.8)]
        assert average_precision(preds, gt, 0.5) == brute_ap(preds, gt, 0.5) == 0.5

    def test_no_predictions(self):
        assert average_precision([], {"v": [(0, 1)]}, 0.5) == 0.0

    def test_no_gt_rejected(self):
        # "x" has ground truth in training only, none in the validation subset scored
        videos = {"t": _record("t", [("x", 0.0, 1.0)], subset=Subset.TRAINING)}
        with pytest.warns(RuntimeWarning, match="'x'"), pytest.raises(
                DataError, match="mAP undefined: no ground truth in subset validation"):
            mean_ap({"v": [("x", 0, 1, 0.5)]}, videos, [0.5], (), Subset.VALIDATION)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            props, gt = _random_instance(rng)
            preds = [(vid, p.start, p.end, p.score) for vid, ps in props.items() for p in ps]
            for threshold in (0.3, 0.5, 0.75):
                got = average_precision(preds, gt, threshold)
                want = brute_ap(preds, gt, threshold)
                assert got == pytest.approx(want, abs=1e-12)


class TestMeanAp:
    def _fixture(self):
        videos = {
            "a": _record("a", [("jump", 0.0, 10.0), ("swim", 50.0, 60.0)]),
            "b": _record("b", [("jump", 20.0, 40.0)]),
            # "dive" is in the vocabulary but has no training or validation gt
            "c": _record("c", [("dive", 0.0, 10.0)], subset=Subset.TESTING),
        }
        loc = {
            "a": [("jump", 0.0, 10.0, 0.9), ("swim", 50.0, 60.0, 0.8)],
            "b": [("jump", 20.0, 40.0, 0.7)],
        }
        return videos, loc

    def test_perfect_predictions(self):
        videos, loc = self._fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert mean_ap(loc, videos, [0.5], (), Subset.VALIDATION) == {None: {0.5: 1.0}}

    def test_zero_gt_class_warns_and_is_excluded(self):
        videos, loc = self._fixture()
        with pytest.warns(RuntimeWarning, match="dive"):
            value = mean_ap(loc, videos, [0.5], (), Subset.VALIDATION)[None][0.5]
        assert value == 1.0  # mean over jump and swim only

    def test_subset_filter(self):
        videos, loc = self._fixture()
        with warnings.catch_warnings():
            # no labels have validation gt here, so every class warns first
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DataError, match="no ground truth in subset training"):
                mean_ap(loc, videos, [0.5], (), Subset.TRAINING)

    def test_bad_threshold(self):
        # eval-loc's thresholds are the tIoU grid plus eval.map_points, which
        # EvalOptions keeps in (0, 1]
        for t in (0.0, 1.5):
            with pytest.raises(ConfigError, match=rf"must lie in \(0, 1\], got {t}"):
                EvalOptions(map_points=(t,))

    def test_one_value_per_threshold_and_n(self):
        videos, loc = self._fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            maps = mean_ap(loc, videos, [0.95, 0.5, 0.95], [2, 1, 2], Subset.VALIDATION)
        assert list(maps) == [None, 2, 1]
        assert all(list(by_t) == [0.95, 0.5] for by_t in maps.values())


class TestEvalAtN:
    def test_identity_when_n_large(self):
        videos, loc = TestMeanAp()._fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            maps = mean_ap(loc, videos, TIOU_GRID, [100], Subset.VALIDATION)
        assert maps[100] == maps[None]

    def test_bad_n(self):
        # mean_ap trusts its cutoffs: eval.at_n is checked where it enters
        with pytest.raises(ConfigError, match="eval.at_n values must be >= 1"):
            load_config(None, ["eval.at_n=[0]"], None, None)

    def test_truncation_drops_low_scores(self):
        videos = {
            "a": _record("a", [("jump", 0.0, 10.0)]),
        }
        # the matching entry is ranked second within the video
        loc = {"a": [("jump", 40.0, 80.0, 0.9), ("jump", 0.0, 10.0, 0.5)]}
        maps = mean_ap(loc, videos, [0.5], [1, 2], Subset.VALIDATION)
        assert maps[1][0.5] == 0.0
        assert maps[2][0.5] == 0.5


_LABELS = ("a", "b", "c")
_span = st.tuples(st.integers(0, 8), st.integers(1, 4)).map(
    lambda p: (float(p[0]), float(p[0] + p[1]))
) | st.tuples(st.floats(0.0, 30.0), st.floats(0.5, 15.0)).map(lambda p: (p[0], p[0] + p[1]))
_entry = st.tuples(st.sampled_from(_LABELS), _span,
                   st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)).map(
    lambda e: (e[0], *e[1], e[2]))
_video = st.tuples(
    st.lists(_entry, max_size=8).flatmap(  # repeat a prefix: duplicate rows
        lambda rows: st.integers(0, len(rows)).map(lambda k: rows + rows[:k])),
    st.lists(st.tuples(st.sampled_from(_LABELS), _span).map(lambda g: (g[0], *g[1])),
             max_size=3),
)


class TestTableMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        videos=st.lists(_video, min_size=1, max_size=3),
        thresholds=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
        extra_n=st.integers(0, 3),
    )
    def test_top_n_against_brute_mean_ap(self, videos, thresholds, extra_n):
        loc = {f"v{k}": rows for k, (rows, _gt) in enumerate(videos)}
        gt = {f"v{k}": spans for k, (_rows, spans) in enumerate(videos)}
        if not any(gt.values()):
            gt["v0"] = [("a", 0.0, 5.0)]
        records = {
            vid: _record(vid, spans) for vid, spans in gt.items()
        }
        at_n = range(1, max(map(len, loc.values())) + extra_n + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            maps = mean_ap(loc, records, thresholds, at_n, Subset.VALIDATION)
        for n in (None, *at_n):
            # each video's top n under the localization ranking
            top = {vid: sorted(rows, key=lambda r: (-r[3], r[1], r[2] - r[1], r[0]))[:n]
                   for vid, rows in loc.items()}
            for t in thresholds:
                assert abs(maps[n][t] - brute_mean_ap(top, gt, t)) <= 1e-9


def _loop_ar_an(proposals, gt, an_max):
    """ar_an as one scalar tIoU at a time: a running best per instance, then
    the first rank reaching each threshold."""
    grid = TIOU_GRID
    total = sum(len(v) for v in gt.values())
    hits = np.zeros((an_max + 1, len(grid)), dtype=np.int64)
    for vid, intervals in gt.items():
        kept = list(proposals[vid])[:an_max] if vid in proposals else ()
        for g in intervals:
            best = 0.0
            prefix = np.empty(len(kept), dtype=np.float64)
            for r, p in enumerate(kept):
                best = max(best, oracle_tiou((p.start, p.end), g))
                prefix[r] = best
            for ti, t in enumerate(grid):
                rank = int(np.searchsorted(prefix, t, side="left"))
                if rank < len(kept):
                    hits[rank + 1, ti] += 1
    cum = np.cumsum(hits, axis=0)
    ar = tuple(float(np.mean(cum[an] / total)) for an in range(1, an_max + 1))
    return ArAnCurve(ar, float(np.mean(np.asarray(ar))))


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
            props[vid] = pset(rows)
        spans = []
        for _ in range(int(rng.integers(0, 3))):
            s = float(rng.uniform(0, 40))
            spans.append((s, s + float(rng.uniform(1, 20))))
        gt[vid] = spans
        total_gt += len(spans)
    if total_gt == 0:
        gt[vids[0]] = [(0.0, 5.0)]
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
            an = int(rng.integers(1, 7))
            threshold = float(rng.choice(TIOU_GRID))
            assert recall(props, gt, an, threshold) == brute_recall(plain_props, gt, an, threshold)
            curve = ar_an(props, gt_records(gt), an_max=an)
            assert curve.ar_at(an) == pytest.approx(
                brute_average_recall(plain_props, gt, an), abs=1e-12)
            want_ar, want_area = brute_ar_an(plain_props, gt, an)
            assert list(curve.ar) == pytest.approx(want_ar, abs=1e-12)
            assert curve.area == pytest.approx(want_area, abs=1e-12)
