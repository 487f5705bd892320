import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import group
from oracles import brute_group, loop_regions, loop_tag_columns
from tapkit.core import ProposalSet, Source, Subset, VideoRecord
from tapkit.errors import ConfigError, DataError
from tapkit.ingest import FeatureSequence, SynthConfig, generate_synthetic
from tapkit.tag import (
    TagConfig,
    _fragments,
    _region_means,
    _regions,
    actionness_targets,
    build_mlp,
    predict_actionness,
    tag_proposals,
    train_actionness,
)


def frags(values, tau, min_frag):
    """The fragments of one tau, as (start, end) pairs."""
    _, starts, ends = _fragments(np.asarray(values, dtype=np.float64), (tau,), min_frag)
    return list(zip(starts.tolist(), ends.tolist()))


def _record(duration=10.0, spans=()):
    return VideoRecord("v", duration, Subset.TRAINING, ("a",) * len(spans),
                       [s for s, _ in spans], [e for _, e in spans])


class TestActionnessTargets:
    def test_center_containment_by_hand(self):
        # duration 10, 10 snippets, instance [2.5, 5.0): centers 2.5, 3.5, 4.5
        labels = actionness_targets(_record(10.0, [(2.5, 5.0)]), 10)
        assert np.flatnonzero(labels).tolist() == [2, 3, 4]

    def test_no_instances_all_zero(self):
        assert actionness_targets(_record(), 8).tolist() == [0.0] * 8

    def test_full_coverage_all_one(self):
        labels = actionness_targets(_record(10.0, [(0.0, 10.0)]), 8)
        assert labels.tolist() == [1.0] * 8

    def test_bad_snippet_count(self):
        # the snippet count is a FeatureSequence's T, which is at least 1
        with pytest.raises(DataError, match=r"T x D with T, D >= 1, got shape \(0, 2\)"):
            FeatureSequence(np.zeros((0, 2)))


class TestGroup:
    def test_worked_example(self):
        regions = group([0.9, 0.9, 0.1, 0.9], tau=0.5, gamma=0.7)
        # [0,4) covers 3 of 4 snippets = 0.75 >= 0.7
        assert regions == [(0, 2), (0, 4), (3, 4)]

    def test_all_below_tau(self):
        assert group([0.1, 0.2, 0.3], tau=0.5, gamma=0.5) == []

    def test_all_above_tau(self):
        assert group([0.9] * 6, tau=0.5, gamma=0.5) == [(0, 6)]

    def test_thresholds_validated(self):
        with pytest.raises(ConfigError):
            TagConfig(tau_grid=(0.0,))
        with pytest.raises(ConfigError):
            TagConfig(gamma_grid=(0.5, 1.0))

    def test_min_fragment_filters_short_runs(self):
        values = [1.0, 0.0, 1.0, 1.0]
        assert frags(values, 0.5, 1) == [(0, 1), (2, 4)]
        assert frags(values, 0.5, 2) == [(2, 4)]
        assert group(values, tau=0.5, gamma=0.9, min_frag=2) == [(2, 4)]

    def test_fragment_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.choice([0.0, 0.6, 1.0], size=10)
            lo = frags(values, 0.5, 1)
            hi = frags(values, 0.9, 1)
            for fs, fe in hi:
                assert any(s <= fs and fe <= e for s, e in lo)

    def test_cutoff_only_prunes(self):
        # exhaustive mode may emit extra regions but never lose emitted ones
        rng = np.random.default_rng(1)
        for _ in range(100):
            values = rng.choice([0.0, 0.6, 1.0], size=12)
            pruned = set(group(values, 0.5, 0.7, scan_cutoff=True))
            full = set(group(values, 0.5, 0.7, scan_cutoff=False))
            assert pruned <= full

    def test_exhaustive_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            values = rng.choice([0.0, 0.6, 1.0], size=int(rng.integers(1, 13)))
            tau = float(rng.choice([0.3, 0.5, 0.7]))
            gamma = float(rng.choice([0.2, 0.5, 0.8]))
            got = group(values, tau, gamma, scan_cutoff=False)
            assert got == brute_group(values, tau, gamma)

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from([0.0, 0.6, 1.0]), min_size=1, max_size=12),
        st.sampled_from([0.2, 0.4, 0.6, 0.8]),
        st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    )
    def test_gamma_monotone(self, values, g1, g2):
        lo, hi = min(g1, g2), max(g1, g2)
        for cutoff in (False, True):
            wide = set(group(values, 0.5, lo, scan_cutoff=cutoff))
            narrow = set(group(values, 0.5, hi, scan_cutoff=cutoff))
            assert narrow <= wide

    def test_emitted_coverage_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.choice([0.0, 0.6, 1.0], size=12)
            runs = frags(values, 0.5, 1)
            for a, b in group(values, 0.5, 0.6):
                covered = sum(fe - fs for fs, fe in runs if a <= fs and fe <= b)
                assert covered / (b - a) >= 0.6


class TestTagProposals:
    def test_validation(self):
        non_finite = [np.array([0.5, bad, 0.5]) for bad in (np.nan, np.inf, -np.inf)]
        for values in (np.zeros((2, 2)), np.array([0.5, 1.2]), np.array([-0.1]), np.zeros(0),
                       *non_finite):
            with pytest.raises(DataError, match="actionness (values )?for v "):
                tag_proposals(values, TagConfig(), _record(8.0))

    def test_coerces_float64(self):
        # float32 sums would round the region means differently
        values = np.random.default_rng(3).uniform(0.0, 1.0, size=64).astype(np.float32)
        got = tag_proposals(values, TagConfig(), _record(64.0))
        want = tag_proposals(values.astype(np.float64), TagConfig(), _record(64.0))
        assert len(got) > 0
        for column in ("starts", "ends", "scores"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_flat_zero_empty(self):
        pset = tag_proposals(np.zeros(8), TagConfig(), _record(8.0))
        assert len(pset) == 0

    def test_flat_one_single_proposal(self):
        pset = tag_proposals(np.ones(8), TagConfig(), _record(8.0))
        assert len(pset) == 1
        [p] = pset
        assert (p.start, p.end, p.score) == (0.0, 8.0, 1.0)
        assert p.source is Source.TAG

    def test_worked_example_grid(self):
        # same 4 snippets as TestGroup's worked example, full default grid, 4 s video
        pset = tag_proposals(np.array([0.9, 0.9, 0.1, 0.9]), TagConfig(), _record(4.0))
        got = {(p.start, p.end): p.score for p in pset}
        assert set(got) == {(0.0, 2.0), (3.0, 4.0), (0.0, 4.0)}
        assert got[(0.0, 2.0)] == pytest.approx(0.9)
        assert got[(3.0, 4.0)] == pytest.approx(0.9)
        assert got[(0.0, 4.0)] == pytest.approx(0.7)
        assert pset.scores[0] == pytest.approx(0.9)

    def test_intervals_inside_duration(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = rng.uniform(0, 1, size=int(rng.integers(1, 30)))
            rec = _record(float(rng.uniform(5, 100)))
            for p in tag_proposals(values, TagConfig(), rec):
                assert 0.0 <= p.start < p.end <= rec.duration


def _bits(column):
    return np.asarray(column, dtype=np.float64).tobytes()


def _actionness(rng, num):
    """num values with runs: levels held for random stretches, plus noise."""
    levels = rng.choice([0.0, 0.15, 0.45, 0.6, 0.95, 1.0], size=num)
    hold = np.repeat(levels[: num // 4 + 1], rng.integers(1, 9, size=num // 4 + 1))[:num]
    if len(hold) < num:
        hold = np.concatenate((hold, levels[len(hold):]))
    noisy = hold + rng.normal(0.0, 0.05, size=num) * (rng.uniform(size=num) < 0.5)
    return np.clip(noisy, 0.0, 1.0)


_GRIDS = st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35, 0.05]),
                  min_size=1, max_size=9, unique=True)


class TestArrayGrouping:
    """The array passes against the per-(tau, gamma) loops and the
    per-region mean they replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), _GRIDS, _GRIDS,
           st.integers(1, 3), st.booleans())
    def test_matches_loops(self, seed, num, taus, gammas, min_frag, cutoff):
        values = _actionness(np.random.default_rng(seed), num)
        starts, ends = _regions(values, taus, gammas, min_frag, cutoff)
        assert list(zip(starts.tolist(), ends.tolist())) == loop_regions(
            values, taus, gammas, min_frag, cutoff)
        cfg = TagConfig(tau_grid=tuple(taus), gamma_grid=tuple(gammas), min_fragment=min_frag,
                        scan_cutoff=cutoff)
        duration = float(np.random.default_rng(seed).uniform(1.0, 400.0))
        got = tag_proposals(values, cfg, _record(duration))
        want = ProposalSet(*loop_tag_columns(values, cfg, duration), Source.TAG)
        for column in ("starts", "ends", "scores", "sources"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_region_means_match_slice_mean(self, seed, num):
        # lengths up to 300 cross numpy's 128-element pairwise-summation block
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=num)
        starts = rng.integers(0, num, size=40)
        ends = np.minimum(num, starts + rng.integers(1, num + 1, size=40))
        want = [values[s:e].mean() for s, e in zip(starts, ends)]
        assert _bits(_region_means(values, starts, ends)) == _bits(want)

    def test_long_sequence_is_grouped_in_blocks(self):
        # about 1,000 one-snippet fragments per tau: every tau's fragments
        # against each other at three gammas would be 15M coverage values
        rng = np.random.default_rng(7)
        values = np.zeros(2000)
        values[::2] = rng.uniform(0.5, 1.0, size=1000)
        values[1::2] = rng.uniform(0.0, 0.05, size=1000)
        cfg = TagConfig(gamma_grid=(0.7, 0.8, 0.9))
        tracemalloc.start()
        try:
            got = tag_proposals(values, cfg, _record(2000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, f"tag_proposals peaked at {peak} bytes"
        want = ProposalSet(*loop_tag_columns(values, cfg, 2000.0), Source.TAG)
        assert len(got) == 1000
        for column in ("starts", "ends", "scores"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


class TestMlp:
    def test_untrained_predicts_exactly_half(self):
        model = build_mlp(6, TagConfig(), seed=0)
        seq = FeatureSequence(np.random.default_rng(0).standard_normal((9, 6)).astype(np.float32))
        out = predict_actionness(model, seq)
        assert out.dtype == np.float64 and out.shape == (9,)
        assert np.all(out == 0.5)

    def test_training_deterministic(self):
        cfg = SynthConfig(num_videos=10, feature_dim=6, num_classes=2, seed=12)
        index, feats, _ = generate_synthetic(cfg)
        records = index.subset_videos(Subset.TRAINING)
        tcfg = TagConfig(epochs=3)
        a = build_mlp(6, tcfg, seed=5)
        b = build_mlp(6, tcfg, seed=5)
        trace_a = train_actionness(a, records, feats, tcfg, seed=5)
        trace_b = train_actionness(b, records, feats, tcfg, seed=5)
        assert trace_a == trace_b
        assert np.array_equal(a.params, b.params)

    def test_training_reduces_loss(self):
        # signal 3.0 keeps the Bayes MSE floor well below half the start;
        # with the default 2.0 the halving bar sits on the noise floor
        cfg = SynthConfig(num_videos=30, feature_dim=8, num_classes=2,
                          signal_strength=3.0, seed=13)
        index, feats, _ = generate_synthetic(cfg)
        records = index.subset_videos(Subset.TRAINING)
        tcfg = TagConfig(epochs=20, learning_rate=3e-3)
        model = build_mlp(8, tcfg, seed=6)
        trace = train_actionness(model, records, feats, tcfg, seed=6)
        assert trace[-1] < 0.5 * trace[0]

    def test_heldout_auc_above_bar(self):
        # committed fixture: stronger signal than the pipeline default so a
        # single snippet carries enough evidence (measured AUC 0.9268)
        cfg = SynthConfig(num_videos=150, signal_strength=3.0, seed=42)
        index, feats, _ = generate_synthetic(cfg)
        tcfg = TagConfig()
        model = build_mlp(cfg.feature_dim, tcfg, seed=42)
        train = index.subset_videos(Subset.TRAINING)
        train_actionness(model, train, feats, tcfg, seed=42)

        scores, labels = [], []
        for rec in index.subset_videos(Subset.VALIDATION):
            seq = feats[rec.video_id]
            scores.append(predict_actionness(model, seq))
            labels.append(actionness_targets(rec, seq.num_snippets))
        s = np.concatenate(scores)
        y = np.concatenate(labels)
        pos, neg = s[y == 1.0], s[y == 0.0]
        # Mann-Whitney AUC with midranks for ties
        pooled = np.concatenate([pos, neg])
        order = np.argsort(pooled, kind="stable")
        ranks = np.empty(pooled.size)
        ranks[order] = np.arange(1, pooled.size + 1)
        for v in np.unique(pooled):
            mask = pooled == v
            ranks[mask] = ranks[mask].mean()
        auc = (ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2) / (pos.size * neg.size)
        assert auc > 0.9

