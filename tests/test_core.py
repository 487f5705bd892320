import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pset, tiou
from oracles import masked_tiou_matrix, oracle_tiou
from tapkit.core import DatasetIndex, ProposalSet, Source, Subset, VideoRecord, tiou_matrix
from tapkit.errors import DataError
from tapkit.ingest import FeatureSequence, load_annotations, read_results
from tapkit.ssad import AnchorPyramid, SsadConfig, SsadModel, infer


# finite, and far enough from overflow that length arithmetic stays exact-ish
finite_times = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


_ROW_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]) | finite_times


def interval_strategy():
    return st.tuples(finite_times, finite_times).filter(lambda p: p[0] < p[1])


class TestTiou:
    def test_identical(self):
        assert tiou((0, 10), (0, 10)) == 1.0

    def test_disjoint_is_zero_regardless_of_gap(self):
        assert tiou((0, 10), (20, 30)) == 0.0
        assert tiou((0, 10), (1000, 1010)) == 0.0

    def test_touching_is_zero(self):
        assert tiou((0, 10), (10, 20)) == 0.0

    def test_partial(self):
        assert tiou((0, 10), (5, 15)) == pytest.approx(5.0 / 15.0, rel=0, abs=0)

    def test_containment(self):
        assert tiou((0, 10), (2, 4)) == pytest.approx(0.2)

    @given(st.lists(interval_strategy(), max_size=6), st.lists(interval_strategy(), max_size=6))
    def test_symmetric_and_bounded(self, a_list, b_list):
        a_bounds = ([a[0] for a in a_list], [a[1] for a in a_list])
        b_bounds = ([b[0] for b in b_list], [b[1] for b in b_list])
        m = tiou_matrix(*a_bounds, *b_bounds)
        assert np.array_equal(m, tiou_matrix(*b_bounds, *a_bounds).T)
        assert np.all((0.0 <= m) & (m <= 1.0))

    @given(interval_strategy(), interval_strategy())
    def test_matches_oracle(self, a, b):
        assert tiou(a, b) == oracle_tiou(a, b)


def _assert_matrix_is_oracle(a_rows, b_rows):
    got = tiou_matrix([a[0] for a in a_rows], [a[1] for a in a_rows],
                      [b[0] for b in b_rows], [b[1] for b in b_rows])
    assert got.shape == (len(a_rows), len(b_rows)) and got.dtype == np.float64
    # bit for bit: hex() also tells 0.0 from -0.0
    assert [[v.hex() for v in row] for row in got.tolist()] == [
        [oracle_tiou(a, b).hex() for b in b_rows] for a in a_rows
    ]


class TestTiouMatrix:
    @given(st.lists(interval_strategy(), max_size=6), st.lists(interval_strategy(), max_size=6))
    def test_matches_oracle_bitwise(self, a_list, b_list):
        _assert_matrix_is_oracle(a_list, b_list)

    def test_edge_pairs(self):
        a_rows = [(0.0, 10.0), (0.1, 0.7), (-3.5, 2.25), (1e-9, 2e-9)]
        b_rows = [
            (10.0, 20.0), (-5.0, 0.0),        # touching
            (30.0, 40.0), (-9.0, -4.0),       # disjoint
            (2.0, 4.0), (-100.0, 100.0),      # nested either way
            (0.0, 10.0), (0.1, 0.7),          # identical
            (0.3, 0.9), (1.5e-9, 1e-3),       # partial
        ]
        _assert_matrix_is_oracle(a_rows, b_rows)

    def test_negative_zero_intersection_scores_positive_zero(self):
        # min(-0.0, 1.0) - max(-1.0, 0.0) is -0.0: no overlap, and +0.0 out
        a_rows = [(-1.0, -0.0), (-0.0, 2.0)]
        b_rows = [(0.0, 1.0), (-2.0, -0.0), (-0.0, 5e-324)]
        _assert_matrix_is_oracle(a_rows, b_rows)
        got = tiou_matrix(*zip(*a_rows), *zip(*b_rows))
        assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
        assert got.tobytes() == masked_tiou_matrix(*zip(*a_rows), *zip(*b_rows)).tobytes()

    # sorted pairs, so that only ties are filtered out: filtering every
    # reversed pair as well trips hypothesis's filter_too_much health check
    @given(st.lists(st.tuples(_ROW_VALUES | st.just(-0.0), _ROW_VALUES | st.just(-0.0))
                    .map(sorted).filter(lambda p: p[0] < p[1]), max_size=8),
           st.lists(st.tuples(_ROW_VALUES | st.just(-0.0), _ROW_VALUES | st.just(-0.0))
                    .map(sorted).filter(lambda p: p[0] < p[1]), max_size=8))
    def test_matches_masked_kernel_bitwise(self, a_rows, b_rows):
        a = ([r[0] for r in a_rows], [r[1] for r in a_rows])
        b = ([r[0] for r in b_rows], [r[1] for r in b_rows])
        assert tiou_matrix(*a, *b).tobytes() == masked_tiou_matrix(*a, *b).tobytes()


class TestNormalize:
    """Unit scale and back: ssad divides gt by the duration, and infer scales
    the unit anchors by it."""

    @staticmethod
    def _infer(unit_start, unit_end, duration):
        cfg = SsadConfig(input_length=4, hidden_channels=2, scale_ratios=(1.0,))
        rec = VideoRecord("v", duration, Subset.VALIDATION)
        model = SsadModel(2, cfg)
        model.pyramid = AnchorPyramid(np.array([unit_start]), np.array([unit_end]))
        [p] = infer(model, [rec], {"v": FeatureSequence(np.zeros((4, 2)))})["v"]
        return p.start, p.end

    def test_full_span(self):
        assert self._infer(0.0, 1.0, 80.0) == (0.0, 80.0)

    def test_interior(self):
        assert self._infer(0.25, 0.5, 120.0) == (30.0, 60.0)

    def test_bad_duration(self):
        for duration in (0.0, -3.0, math.inf):
            with pytest.raises(DataError, match="duration must be finite and > 0"):
                self._infer(0.1, 0.2, duration)

    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),
            st.floats(min_value=0.0, max_value=1e5),
        ).filter(lambda p: p[0] + 1e-9 < p[1]),  # wide enough to survive / duration
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_round_trip(self, span, extra):
        duration = span[1] + extra
        start, end = self._infer(span[0] / duration, span[1] / duration, duration)
        assert start == pytest.approx(span[0], rel=1e-12, abs=1e-12)
        assert end == pytest.approx(span[1], rel=1e-12, abs=1e-12)


class TestProposal:
    """Rows of a set: plain floats and a Source member."""

    def test_score_bounds(self):
        assert len(ProposalSet([0, 0], [1, 1], [0.0, 1.0])) == 2
        for score in (1.5, -0.1, math.nan):
            with pytest.raises(DataError, match=r"^row 0: .* a score in \[0, 1\]"):
                ProposalSet([0], [1], [score])

    def test_source_coercion(self):
        # a scalar source applies to every row; per-row sources follow their rows
        assert [p.source for p in pset([(0, 1, 0.5), (2, 3, 0.7)], 2)] == [
            Source.REFINED, Source.REFINED]
        mixed = ProposalSet([0.0, 2.0], [1.0, 3.0], [0.5, 0.7],
                            [Source.REFINED, Source.SSAD])
        rows = list(mixed)
        assert rows == [(2.0, 3.0, 0.7, Source.SSAD), (0.0, 1.0, 0.5, Source.REFINED)]
        assert rows[0].source is Source.SSAD and rows[1].source is Source.REFINED

    def test_fields_are_python_floats(self):
        # json writes Python floats by repr; NumPy scalars would not do
        [p] = pset([(0.1, 0.7, 0.3)])
        assert all(type(v) is float for v in (p.start, p.end, p.score))


_ROW_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
_ROWS = st.lists(
    st.tuples(_ROW_VALUES, _ROW_VALUES, _ROW_SCORES, st.sampled_from(list(Source)))
    .filter(lambda r: r[0] < r[1]),
    max_size=12,
).flatmap(lambda rows: st.lists(st.sampled_from(rows), max_size=16) if rows else st.just([]))
_BAD_ROWS = {
    "nan start": (math.nan, 1.0, 0.5),
    "infinite end": (0.0, math.inf, 0.5),
    "reversed": (2.0, 1.0, 0.5),
    "empty": (1.0, 1.0, 0.5),
    "negative score": (0.0, 1.0, -0.25),
    "score above one": (0.0, 1.0, 1.5),
    "nan score": (0.0, 1.0, math.nan),
    "overflowing length": (-1.7e308, 1.7e308, 0.5),
}


def _columns(rows):
    return ([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


class TestProposalSet:
    def test_sorted_on_construction(self):
        ps = pset([(5, 9, 0.2), (0, 4, 0.9), (1, 3, 0.5)])
        assert [p.score for p in ps] == [0.9, 0.5, 0.2]

    def test_tie_break_start_then_length(self):
        ps = pset([(2, 4, 0.5), (1, 9, 0.5), (1, 3, 0.5)])
        assert [(p.start, p.end) for p in ps] == [(1, 3), (1, 9), (2, 4)]

    def test_top(self):
        ps = pset([(i, i + 1, (i + 1) / 10.0) for i in range(5)])
        top2 = ps.take(slice(2))
        assert [p.score for p in top2] == [0.5, 0.4]
        assert len(ps.take(slice(100))) == 5
        assert [p.score for p in ps.take([3, 1])] == [0.4, 0.2]  # ranked again

    @given(_ROWS)
    def test_order_is_the_stable_ranking_key(self, rows):
        # bit for bit: hex() tells -0.0 from 0.0, so a tie that the sort
        # reordered would show
        ps = ProposalSet(*_columns(rows), [r[3] for r in rows])
        order = sorted(range(len(rows)),
                       key=lambda i: (-rows[i][2], rows[i][0], rows[i][1] - rows[i][0]))
        want = [(rows[i][0].hex(), rows[i][1].hex(), rows[i][2].hex(), rows[i][3]) for i in order]
        assert [(p.start.hex(), p.end.hex(), p.score.hex(), p.source) for p in ps] == want

    @given(_ROWS, st.sampled_from(sorted(_BAD_ROWS)), st.integers(0, 20))
    def test_invalid_row_is_named(self, rows, kind, at):
        at = min(at, len(rows))
        rows = [r[:3] for r in rows]
        rows.insert(at, _BAD_ROWS[kind])
        with pytest.raises(DataError, match=f"^row {at}: "):
            ProposalSet(*_columns(rows))

    @pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
    def test_read_results_names_the_video_and_row(self, tmp_path, kind):
        start, end, score = _BAD_ROWS[kind]
        entries = [{"segment": [0.0, 1.0], "score": 0.5},
                   {"segment": [start, end], "score": score}]
        path = tmp_path / "props.json"
        path.write_text(json.dumps({"results": {"vid7": entries}}))
        with pytest.raises(DataError, match=r"results\.vid7: row 1: "):
            read_results(path)


# each kind as (start, end) in a 10 s video
_BAD_INSTANCES = {
    "empty": (5.0, 5.0),
    "reversed": (7.0, 3.0),
    "nan start": (math.nan, 1.0),
    "infinite end": (0.0, math.inf),
    "negative start": (-1.0, 2.0),
    "end after duration": (5.0, 12.0),
}


def _spans_with_bad(kind, at):
    """Good spans with one bad kind at index at, and a reversed one after it."""
    spans = [(1.0, 2.0), (3.0, 4.0)]
    spans.insert(at, _BAD_INSTANCES[kind])
    return spans + [(9.0, 8.0)]


class TestVideoRecord:
    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("kind", sorted(_BAD_INSTANCES))
    def test_first_bad_instance_is_named(self, kind, at):
        spans = _spans_with_bad(kind, at)
        with pytest.raises(DataError, match=f"^instance {at}: "):
            VideoRecord("v", 10.0, "training", ("a",) * len(spans), *zip(*spans))

    @pytest.mark.parametrize("kind", sorted(_BAD_INSTANCES))
    def test_load_annotations_names_the_video_and_instance(self, tmp_path, kind):
        anns = [{"label": "a", "segment": list(span)} for span in _spans_with_bad(kind, 1)]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"database": {"vid7": {
            "duration": 10.0, "subset": "training", "annotations": anns}}}))
        with pytest.raises(DataError, match=r"database\.vid7: instance 1: "):
            load_annotations(path)

    @pytest.mark.parametrize("labels, starts, ends", [
        (("a",), [1.0, 3.0], [2.0, 4.0]),
        (("a", "b"), [1.0], [2.0, 4.0]),
        (("a", "b"), [1.0, 3.0], [2.0]),
    ], ids=["labels", "starts", "ends"])
    def test_column_lengths_must_match(self, labels, starts, ends):
        with pytest.raises(DataError, match="labels"):
            VideoRecord("v", 10.0, "training", labels, starts, ends)

    def test_columns_are_read_only_float64(self):
        rec = VideoRecord("v", 10, "training", ["a"], [1], [4])
        assert type(rec.duration) is float and rec.labels == ("a",)
        assert (rec.starts.tolist(), rec.ends.tolist()) == ([1.0], [4.0])
        for column in (rec.starts, rec.ends):
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_nonpositive_duration(self):
        with pytest.raises(DataError, match="duration must be finite and > 0, got 0.0"):
            VideoRecord("v", 0.0, "training")

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration(self, duration):
        with pytest.raises(DataError, match="finite"):
            VideoRecord("v", duration, "training")


def test_index_labels_come_from_its_records():
    videos = {"x": VideoRecord("x", 10.0, "training", ("swim", "dive", "swim"), [0, 2, 4], [1, 3, 5]),
              "y": VideoRecord("y", 10.0, "testing", ("jump",), [0], [1]),
              "z": VideoRecord("z", 10.0, "validation")}
    assert DatasetIndex(videos).label_set == ("dive", "jump", "swim")
    assert DatasetIndex().label_set == ()
