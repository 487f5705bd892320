import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import tiou
from oracles import oracle_tiou
from tapkit.core import (
    Proposal,
    ProposalSet,
    Source,
    TemporalInterval,
    VideoRecord,
    clip_unit,
    denormalize,
    tiou_matrix,
)
from tapkit.errors import IntervalError


def iv(s, e):
    return TemporalInterval(s, e)


# finite, and far enough from overflow that length arithmetic stays exact-ish
finite_times = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def interval_strategy():
    return st.tuples(finite_times, finite_times).filter(lambda p: p[0] < p[1]).map(
        lambda p: TemporalInterval(p[0], p[1])
    )


class TestTemporalInterval:
    def test_length(self):
        assert iv(2.0, 5.0).length == 3.0

    def test_degenerate_rejected(self):
        with pytest.raises(IntervalError):
            iv(5.0, 5.0)
        with pytest.raises(IntervalError):
            iv(7.0, 3.0)

    def test_non_finite_rejected(self):
        with pytest.raises(IntervalError):
            iv(0.0, math.inf)
        with pytest.raises(IntervalError):
            iv(math.nan, 1.0)

    def test_coerces_to_float(self):
        a = iv(1, 4)
        assert isinstance(a.start, float) and isinstance(a.end, float)


class TestTiou:
    def test_identical(self):
        assert tiou(iv(0, 10), iv(0, 10)) == 1.0

    def test_disjoint_is_zero_regardless_of_gap(self):
        assert tiou(iv(0, 10), iv(20, 30)) == 0.0
        assert tiou(iv(0, 10), iv(1000, 1010)) == 0.0

    def test_touching_is_zero(self):
        assert tiou(iv(0, 10), iv(10, 20)) == 0.0

    def test_partial(self):
        assert tiou(iv(0, 10), iv(5, 15)) == pytest.approx(5.0 / 15.0, rel=0, abs=0)

    def test_containment(self):
        assert tiou(iv(0, 10), iv(2, 4)) == pytest.approx(0.2)

    @given(st.lists(interval_strategy(), max_size=6), st.lists(interval_strategy(), max_size=6))
    def test_symmetric_and_bounded(self, a_list, b_list):
        a_bounds = ([a.start for a in a_list], [a.end for a in a_list])
        b_bounds = ([b.start for b in b_list], [b.end for b in b_list])
        m = tiou_matrix(*a_bounds, *b_bounds)
        assert np.array_equal(m, tiou_matrix(*b_bounds, *a_bounds).T)
        assert np.all((0.0 <= m) & (m <= 1.0))

    @given(interval_strategy(), interval_strategy())
    def test_matches_oracle(self, a, b):
        assert tiou(a, b) == oracle_tiou((a.start, a.end), (b.start, b.end))


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
        _assert_matrix_is_oracle([(a.start, a.end) for a in a_list],
                                 [(b.start, b.end) for b in b_list])

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


class TestNormalize:
    """Unit scale and back: ssad divides gt by the duration, denormalize inverts it."""

    def test_full_span(self):
        out = denormalize(iv(0, 1), 80.0)
        assert (out.start, out.end) == (0.0, 80.0)

    def test_interior(self):
        out = denormalize(iv(0.25, 0.5), 120.0)
        assert (out.start, out.end) == (30.0, 60.0)

    def test_bad_duration(self):
        with pytest.raises(IntervalError):
            denormalize(iv(0.1, 0.2), 0.0)
        with pytest.raises(IntervalError):
            denormalize(iv(0.1, 0.2), -3.0)
        with pytest.raises(IntervalError):
            denormalize(iv(0.1, 0.2), math.inf)

    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),
            st.floats(min_value=0.0, max_value=1e5),
        ).filter(lambda p: p[0] + 1e-9 < p[1]),  # wide enough to survive / duration
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_round_trip(self, span, extra):
        duration = span[1] + extra
        a = iv(span[0], span[1])
        back = denormalize(iv(a.start / duration, a.end / duration), duration)
        assert back.start == pytest.approx(a.start, rel=1e-12, abs=1e-12)
        assert back.end == pytest.approx(a.end, rel=1e-12, abs=1e-12)


class TestClipUnit:
    def test_clips_left(self):
        out = clip_unit(iv(-0.1, 0.3))
        assert (out.start, out.end) == (0.0, 0.3)

    def test_identity_inside(self):
        out = clip_unit(iv(0.2, 0.8))
        assert (out.start, out.end) == (0.2, 0.8)

    def test_fully_outside(self):
        with pytest.raises(IntervalError):
            clip_unit(iv(1.1, 1.5))
        with pytest.raises(IntervalError):
            clip_unit(iv(-2.0, 0.0))


class TestProposal:
    def test_score_bounds(self):
        Proposal(iv(0, 1), 0.0, Source.SSAD)
        Proposal(iv(0, 1), 1.0, Source.TAG)
        with pytest.raises(IntervalError):
            Proposal(iv(0, 1), 1.5, Source.SSAD)
        with pytest.raises(IntervalError):
            Proposal(iv(0, 1), -0.1, Source.SSAD)
        with pytest.raises(IntervalError):
            Proposal(iv(0, 1), math.nan, Source.SSAD)

    def test_source_coercion(self):
        p = Proposal(iv(0, 1), 0.5, "refined")
        assert p.source is Source.REFINED


class TestProposalSet:
    def test_sorted_on_construction(self):
        ps = ProposalSet("v", (
            Proposal(iv(5, 9), 0.2, Source.SSAD),
            Proposal(iv(0, 4), 0.9, Source.SSAD),
            Proposal(iv(1, 3), 0.5, Source.SSAD),
        ))
        assert [p.score for p in ps] == [0.9, 0.5, 0.2]

    def test_tie_break_start_then_length(self):
        ps = ProposalSet("v", (
            Proposal(iv(2, 4), 0.5, Source.SSAD),
            Proposal(iv(1, 9), 0.5, Source.SSAD),
            Proposal(iv(1, 3), 0.5, Source.SSAD),
        ))
        got = [(p.interval.start, p.interval.end) for p in ps]
        assert got == [(1, 3), (1, 9), (2, 4)]

    def test_top(self):
        ps = ProposalSet("v", tuple(
            Proposal(iv(i, i + 1), (i + 1) / 10.0, Source.SSAD) for i in range(5)
        ))
        top2 = ps.top(2)
        assert len(top2) == 2
        assert [p.score for p in top2] == [0.5, 0.4]
        assert len(ps.top(100)) == 5


class TestVideoRecord:
    def test_instance_must_fit_duration(self):
        from tapkit.core import GroundTruthInstance

        with pytest.raises(IntervalError):
            VideoRecord("v", 10.0, "training",
                        (GroundTruthInstance("a", iv(5.0, 12.0)),))

    def test_nonpositive_duration(self):
        with pytest.raises(IntervalError):
            VideoRecord("v", 0.0, "training")
