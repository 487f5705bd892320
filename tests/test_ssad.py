import numpy as np
import pytest

from oracles import oracle_tiou
from tapkit.core import GroundTruthInstance, Subset, TemporalInterval, VideoRecord
from tapkit.engine import load_weights, save_model
from tapkit.errors import ConfigError, DataFormatError, IntervalError
from tapkit.ingest import FeatureSequence, SynthConfig, generate_synthetic
from tapkit.ssad import (
    SsadConfig,
    SsadModel,
    assign_targets,
    build_anchor_pyramid,
    build_model,
    infer,
    train,
)


def iv(s, e):
    return TemporalInterval(s, e)


class TestConfig:
    def test_default_layer_lengths(self):
        assert SsadConfig().resolved_layer_lengths() == (1, 2, 4, 8, 16, 32, 64)

    def test_short_input(self):
        assert SsadConfig(input_length=64).resolved_layer_lengths() == (1, 2, 4, 8, 16)

    def test_input_length_constraints(self):
        with pytest.raises(ConfigError):
            SsadConfig(input_length=100)  # 25 not a power of two
        with pytest.raises(ConfigError):
            SsadConfig(input_length=6)
        with pytest.raises(ConfigError):
            SsadConfig(input_length=0)

    def test_kernel_must_be_odd(self):
        with pytest.raises(ConfigError):
            SsadConfig(base_kernel=8)

    def test_ratios_positive_nonempty(self):
        with pytest.raises(ConfigError):
            SsadConfig(scale_ratios=())
        with pytest.raises(ConfigError):
            SsadConfig(scale_ratios=(0.5, -1.0))


class TestAnchorPyramid:
    def test_default_count_is_381(self):
        # (1+2+4+8+16+32+64) cells x 3 ratios
        assert len(build_anchor_pyramid(SsadConfig())) == 381

    def test_short_input_count(self):
        assert len(build_anchor_pyramid(SsadConfig(input_length=64))) == 93

    def test_single_cell_single_ratio(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)
        assert len(pyramid) == 1
        a = pyramid.anchors[0]
        assert (a.layer, a.cell, a.ratio) == (0, 0, 1.0)
        assert (a.interval.start, a.interval.end) == (0.0, 1.0)

    def test_two_cell_layer_intervals(self):
        cfg = SsadConfig(input_length=8, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)
        got = [(a.interval.start, a.interval.end) for a in pyramid.anchors]
        # layer of length 1 first, then the two cells of the length-2 map
        assert got == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]

    def test_wide_ratio_clipped(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(3.0,))
        a = build_anchor_pyramid(cfg).anchors[0]
        assert (a.interval.start, a.interval.end) == (0.0, 1.0)

    def test_lexicographic_order(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=16))
        keys = [(a.layer, a.cell, a.ratio) for a in pyramid.anchors]
        assert keys == sorted(keys)

    def test_half_ratio_centered(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(0.5,))
        a = build_anchor_pyramid(cfg).anchors[0]
        assert (a.interval.start, a.interval.end) == (0.25, 0.75)


class TestAssignTargets:
    def test_exact_match_scores_one(self):
        cfg = SsadConfig(input_length=8, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)
        targets = assign_targets(pyramid, [iv(0.0, 0.5)])
        # second anchor is exactly [0, 0.5)
        assert targets[1] == 1.0

    def test_no_gt_all_zero(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=8))
        assert assign_targets(pyramid, []).tolist() == [0.0] * len(pyramid)

    def test_max_over_instances(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)  # single [0, 1) anchor
        targets = assign_targets(pyramid, [iv(0.5, 1.0), iv(0.0, 0.25)])
        assert targets[0] == pytest.approx(0.5)

    def test_known_overlap(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(0.5,))
        pyramid = build_anchor_pyramid(cfg)  # [0.25, 0.75)
        targets = assign_targets(pyramid, [iv(0.5, 1.0)])
        assert targets[0] == pytest.approx(0.25 / 0.75)

    def test_matches_scalar_loop_reference(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=16))
        rng = np.random.default_rng(3)
        for _ in range(20):
            # eighths put gt bounds on anchor bounds: exact matches and ties
            gt = []
            for _ in range(int(rng.integers(1, 5))):
                s = int(rng.integers(0, 8))
                gt.append(iv(s / 8, int(rng.integers(s + 1, 9)) / 8))
            want = []
            for anchor in pyramid.anchors:
                best = 0.0
                for g in gt:
                    a = anchor.interval
                    best = max(best, oracle_tiou((a.start, a.end), (g.start, g.end)))
                want.append(best)
            assert assign_targets(pyramid, gt).tolist() == want

    def test_unnormalized_gt_rejected(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=4))
        with pytest.raises(IntervalError):
            assign_targets(pyramid, [iv(0.0, 2.0)])


class TestModel:
    def test_output_width_matches_pyramid(self):
        for length in (16, 64):
            cfg = SsadConfig(input_length=length, hidden_channels=8)
            model = build_model(4, cfg, seed=0)
            x = np.random.default_rng(0).standard_normal((2, 4, length)).astype(np.float32)
            scores = model.forward(x)
            assert scores.shape == (2, len(build_anchor_pyramid(cfg)))
            assert model.num_anchors == scores.shape[1]

    def test_scores_are_probabilities(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = build_model(4, cfg, seed=1)
        x = np.random.default_rng(1).standard_normal((3, 4, 16)).astype(np.float32)
        scores = model.forward(x)
        assert scores.min() > 0.0 and scores.max() < 1.0

    def test_zero_weights_score_half(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = SsadModel(4, cfg, rng=None)
        x = np.random.default_rng(2).standard_normal((1, 4, 16)).astype(np.float32)
        assert np.all(model.forward(x) == 0.5)

    def test_untrained_infer_ranks_by_position(self):
        # all scores tie at 0.5, so ordering falls back to start then length
        cfg = SsadConfig(input_length=16, hidden_channels=8, top_k=5)
        model = SsadModel(4, cfg, rng=None)
        rec = VideoRecord("v", 20.0, Subset.VALIDATION)
        seq = FeatureSequence("v", np.zeros((10, 4), dtype=np.float32))
        pset = infer(model, seq, rec)
        assert len(pset) == 5
        keys = [(p.interval.start, p.interval.length) for p in pset]
        assert keys == sorted(keys)

    def test_infer_bounds_and_topk(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8, top_k=11)
        model = build_model(4, cfg, seed=3)
        rec = VideoRecord("v", 37.5, Subset.VALIDATION)
        seq = FeatureSequence("v", np.random.default_rng(3).standard_normal((9, 4)).astype(np.float32))
        pset = infer(model, seq, rec)
        assert len(pset) == 11
        for p in pset:
            assert 0.0 <= p.interval.start < p.interval.end <= 37.5
            assert 0.0 <= p.score <= 1.0


def _tiny_dataset(n_videos=12, seed=5):
    cfg = SynthConfig(num_videos=n_videos, feature_dim=4, num_classes=2,
                      duration_range=(20.0, 40.0), seed=seed)
    index, feats, _ = generate_synthetic(cfg)
    records = index.subset_videos(Subset.TRAINING)
    return records, feats


class TestTraining:
    CFG = SsadConfig(input_length=16, hidden_channels=8,
                     epochs=4, batch_size=4)

    def test_deterministic(self):
        records, feats = _tiny_dataset()
        a = build_model(4, self.CFG, seed=7)
        b = build_model(4, self.CFG, seed=7)
        trace_a = train(a, records, feats, seed=7)
        trace_b = train(b, records, feats, seed=7)
        assert trace_a == trace_b
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_zero_epochs_leaves_model_untouched(self):
        records, feats = _tiny_dataset()
        cfg = SsadConfig(input_length=16, hidden_channels=8, epochs=0)
        model = build_model(4, cfg, seed=7)
        before = [p.copy() for p in model.params()]
        assert train(model, records, feats, seed=7) == []
        for p, q in zip(model.params(), before):
            assert np.array_equal(p, q)

    def test_missing_features_named(self):
        records, feats = _tiny_dataset()
        feats = dict(feats)
        del feats[records[0].video_id]
        model = build_model(4, self.CFG, seed=0)
        with pytest.raises(DataFormatError, match=records[0].video_id):
            train(model, records, feats, seed=0)

    def test_loss_decreases(self):
        records, feats = _tiny_dataset(n_videos=20, seed=6)
        cfg = SsadConfig(input_length=16, hidden_channels=8,
                         epochs=30, batch_size=4, learning_rate=3e-3)
        model = build_model(4, cfg, seed=6)
        trace = train(model, records, feats, seed=6)
        assert trace[-1] < 0.5 * trace[0]

    def test_single_video_converges(self):
        # one video, many epochs: the net should memorize its target vector
        rec = VideoRecord("v", 30.0, Subset.TRAINING,
                          (GroundTruthInstance("a", iv(10.0, 20.0)),))
        feats = {"v": FeatureSequence("v", np.random.default_rng(8).standard_normal((15, 4)).astype(np.float32))}
        cfg = SsadConfig(input_length=16, hidden_channels=8,
                         epochs=200, batch_size=1, learning_rate=3e-3)
        model = build_model(4, cfg, seed=8)
        trace = train(model, [rec], feats, seed=8)
        assert trace[-1] < 1e-3


class TestCheckpoint:
    def test_round_trip_same_inference(self, tmp_path):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = build_model(4, cfg, seed=9)
        path = tmp_path / "ssad.tapm"
        save_model(model.layers, path)
        loaded = load_weights(SsadModel(4, cfg), path)
        rec = VideoRecord("v", 25.0, Subset.VALIDATION)
        seq = FeatureSequence("v", np.random.default_rng(9).standard_normal((7, 4)).astype(np.float32))
        a = infer(model, seq, rec)
        b = infer(loaded, seq, rec)
        assert a == b

    def test_architecture_mismatch(self, tmp_path):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        path = tmp_path / "ssad.tapm"
        save_model(build_model(4, cfg, seed=0).layers, path)
        other = SsadConfig(input_length=16, hidden_channels=16)
        with pytest.raises(ConfigError):
            load_weights(SsadModel(4, other), path)
