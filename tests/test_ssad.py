import numpy as np
import pytest

from oracles import grad_check, kink_free, loop_infer_scores, oracle_tiou
from tapkit.core import ProposalSet, Source, Subset, VideoRecord, subset_videos
from tapkit.engine import Conv1d, load_weights, mse_loss, save_model
from tapkit.errors import ConfigError, DataError
from tapkit.ingest import FeatureSequence, SynthConfig, generate_synthetic
from tapkit.ssad import (
    SsadConfig,
    SsadModel,
    assign_targets,
    build_anchor_pyramid,
    _prepare_input,
    infer,
    train,
)


def _targets(pyramid, spans):
    """assign_targets for normalized (start, end) spans."""
    return assign_targets(pyramid, np.array([s for s, _ in spans]), np.array([e for _, e in spans]))


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
        assert (pyramid.starts.tolist(), pyramid.ends.tolist()) == ([0.0], [1.0])

    def test_two_cell_layer_intervals(self):
        cfg = SsadConfig(input_length=8, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)
        got = list(zip(pyramid.starts.tolist(), pyramid.ends.tolist()))
        # layer of length 1 first, then the two cells of the length-2 map
        assert got == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]

    def test_wide_ratio_clipped(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(3.0,))
        pyramid = build_anchor_pyramid(cfg)
        assert (pyramid.starts.tolist(), pyramid.ends.tolist()) == ([0.0], [1.0])

    def test_lexicographic_order(self):
        # the docstring's formula, one anchor at a time in (layer, cell, ratio) order
        cfg = SsadConfig(input_length=64, scale_ratios=(0.5, 0.75, 1.0, 2.5))
        starts, ends = [], []
        for length in cfg.resolved_layer_lengths():
            for cell in range(length):
                center = (cell + 0.5) / length
                for ratio in cfg.scale_ratios:
                    half = 0.5 * ratio / length
                    starts.append(max(0.0, center - half))
                    ends.append(min(1.0, center + half))
        pyramid = build_anchor_pyramid(cfg)
        assert [v.hex() for v in pyramid.starts.tolist()] == [v.hex() for v in starts]
        assert [v.hex() for v in pyramid.ends.tolist()] == [v.hex() for v in ends]

    def test_half_ratio_centered(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(0.5,))
        pyramid = build_anchor_pyramid(cfg)
        assert (pyramid.starts.tolist(), pyramid.ends.tolist()) == ([0.25], [0.75])


class TestAssignTargets:
    def test_exact_match_scores_one(self):
        cfg = SsadConfig(input_length=8, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)
        targets = _targets(pyramid, [(0.0, 0.5)])
        # second anchor is exactly [0, 0.5)
        assert targets[1] == 1.0

    def test_no_gt_all_zero(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=8))
        assert _targets(pyramid, []).tolist() == [0.0] * len(pyramid)

    def test_max_over_instances(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(1.0,))
        pyramid = build_anchor_pyramid(cfg)  # single [0, 1) anchor
        targets = _targets(pyramid, [(0.5, 1.0), (0.0, 0.25)])
        assert targets[0] == pytest.approx(0.5)

    def test_known_overlap(self):
        cfg = SsadConfig(input_length=4, scale_ratios=(0.5,))
        pyramid = build_anchor_pyramid(cfg)  # [0.25, 0.75)
        targets = _targets(pyramid, [(0.5, 1.0)])
        assert targets[0] == pytest.approx(0.25 / 0.75)

    def test_matches_scalar_loop_reference(self):
        pyramid = build_anchor_pyramid(SsadConfig(input_length=16))
        rng = np.random.default_rng(3)
        for _ in range(20):
            # eighths put gt bounds on anchor bounds: exact matches and ties
            gt = []
            for _ in range(int(rng.integers(1, 5))):
                s = int(rng.integers(0, 8))
                gt.append((s / 8, int(rng.integers(s + 1, 9)) / 8))
            want = []
            for anchor in zip(pyramid.starts.tolist(), pyramid.ends.tolist()):
                best = 0.0
                for g in gt:
                    best = max(best, oracle_tiou(anchor, g))
                want.append(best)
            assert _targets(pyramid, gt).tolist() == want


class TestModel:
    def test_output_width_matches_pyramid(self):
        for length in (16, 64):
            cfg = SsadConfig(input_length=length, hidden_channels=8)
            model = SsadModel(4, cfg, 0)
            x = np.random.default_rng(0).standard_normal((2, 4, length)).astype(np.float32)
            scores = model.forward(x)
            assert scores.shape == (2, len(build_anchor_pyramid(cfg)))
            assert model.num_anchors == scores.shape[1]

    def test_scores_are_probabilities(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = SsadModel(4, cfg, 1)
        x = np.random.default_rng(1).standard_normal((3, 4, 16)).astype(np.float32)
        scores = model.forward(x)
        assert scores.min() > 0.0 and scores.max() < 1.0

    def test_zero_weights_score_half(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = SsadModel(4, cfg, 2)
        model.params[...] = 0.0
        x = np.random.default_rng(2).standard_normal((1, 4, 16)).astype(np.float32)
        assert np.all(model.forward(x) == 0.5)

    def test_untrained_infer_ranks_by_position(self):
        # all scores tie at 0.5, so ordering falls back to start then length
        cfg = SsadConfig(input_length=16, hidden_channels=8, top_k=5)
        model = SsadModel(4, cfg, 5)
        model.params[...] = 0.0
        rec = VideoRecord("v", 20.0, Subset.VALIDATION)
        seq = FeatureSequence(np.zeros((10, 4), dtype=np.float32))
        pset = infer(model, [rec], {"v": seq})["v"]
        assert len(pset) == 5
        keys = [(p.start, p.end - p.start) for p in pset]
        assert keys == sorted(keys)

    def test_infer_bounds_and_topk(self):
        cfg = SsadConfig(input_length=16, hidden_channels=8, top_k=11)
        model = SsadModel(4, cfg, 3)
        rec = VideoRecord("v", 37.5, Subset.VALIDATION)
        seq = FeatureSequence(np.random.default_rng(3).standard_normal((9, 4)).astype(np.float32))
        pset = infer(model, [rec], {"v": seq})["v"]
        assert len(pset) == 11
        for p in pset:
            assert 0.0 <= p.start < p.end <= 37.5
            assert 0.0 <= p.score <= 1.0

    @pytest.mark.parametrize("width", [24, 18])
    def test_wrong_gradient_width_rejected_before_any_head(self, width):
        cfg = SsadConfig(input_length=16, hidden_channels=4)
        model = SsadModel(4, cfg, 4)
        assert model.num_anchors == 21
        model.forward(np.random.default_rng(4).standard_normal((2, 4, 16)).astype(np.float32))
        with pytest.raises(DataError, match="anchors"):
            model.backward(np.ones((2, width), dtype=np.float32))
        assert np.count_nonzero(model.grads) == 0

    def test_each_head_owns_its_map_columns(self):
        # ratios <= 1 clip no anchor, so each anchor's midpoint is its cell centre
        cfg = SsadConfig(input_length=32, hidden_channels=4, scale_ratios=(0.5, 1.0))
        model = SsadModel(3, cfg, 6, dtype=np.float64)
        pyramid, n_ratios = model.pyramid, len(cfg.scale_ratios)
        columns = [i for cols in pyramid.maps for i in range(model.num_anchors)[cols]]
        assert sorted(columns) == list(range(model.num_anchors))
        for k, cols in enumerate(pyramid.maps):
            length = cfg.input_length // 4 >> k
            centres = (pyramid.starts[cols] + pyramid.ends[cols]) / 2
            widths = pyramid.ends[cols] - pyramid.starts[cols]
            assert centres == pytest.approx(np.repeat((np.arange(length) + 0.5) / length, n_ratios))
            assert widths == pytest.approx(np.tile(np.asarray(cfg.scale_ratios) / length, length))

        x = np.random.default_rng(6).standard_normal((2, 3, 32))
        base = model.forward(x)
        for k, cols in enumerate(pyramid.maps):
            for r in range(n_ratios):
                # raising head k's bias of ratio r moves only that ratio's columns of map k
                model.heads[k][0].b[r] += 1.0
                moved = np.flatnonzero((model.forward(x) != base).any(axis=0))
                model.heads[k][0].b[r] -= 1.0
                assert moved.tolist() == list(range(model.num_anchors)[cols][r::n_ratios])

                # a gradient on one of those columns reaches head k's ratio r only
                grad = np.zeros_like(base)
                grad[:, cols.start + r] = 1.0
                model.grads[...] = 0.0
                model.forward(x)
                model.backward(grad)
                for m, head in enumerate(model.heads):
                    conv = head[0]
                    touched = [o for o in range(n_ratios) if conv.gw[o].any() or conv.gb[o]]
                    assert touched == ([r] if m == k else []), (k, r, m)

    def test_conv_roles_cover_the_layers_in_order(self):
        # the perfbench tracer labels each conv stem/down/head from these lists
        model = SsadModel(16, SsadConfig(), 0)
        by_role = [layer for blocks in ([model.stem], model.downs, model.heads)
                   for block in blocks for layer in block if isinstance(layer, Conv1d)]
        convs = [layer for layer in model.layers if isinstance(layer, Conv1d)]
        assert len(convs) == 16
        assert len(by_role) == len(convs)
        assert all(a is b for a, b in zip(by_role, convs))


class TestGradient:
    """The anchor net's own wiring: head j-1 reads down block j, and backward
    adds each head's input gradient into the trunk's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = SsadConfig(input_length=16, hidden_channels=4)
        model, x = kink_free(rng, lambda rng: (SsadModel(3, cfg, int(rng.integers(2**32)),
                                                         dtype=np.float64),
                                               rng.standard_normal((2, 3, 16))))
        target = rng.uniform(0.0, 1.0, size=(2, model.num_anchors))
        assert grad_check(model, x, lambda y: mse_loss(y, target)) < 1e-4


def _tiny_dataset(n_videos=12, seed=5):
    cfg = SynthConfig(num_videos=n_videos, feature_dim=4, num_classes=2,
                      duration_range=(20.0, 40.0))
    videos, feats, _ = generate_synthetic(cfg, seed)
    records = subset_videos(videos, Subset.TRAINING)
    return records, feats


class TestBatchedInference:
    """infer's INFER_BATCH videos per forward pass against one pass per video."""

    @pytest.mark.parametrize("n_videos", [1, 7, 11])
    def test_matches_one_pass_per_video(self, n_videos):
        # the default trunk (input 256, 32 channels), keeping every anchor
        cfg = SsadConfig(top_k=1000)
        synth = SynthConfig(num_videos=n_videos, feature_dim=6, num_classes=2,
                            duration_range=(15.0, 95.0), val_fraction=0.0)
        videos, feats, _ = generate_synthetic(synth, n_videos)
        records = subset_videos(videos, Subset.TRAINING)
        assert len({feats[r.video_id].num_snippets for r in records}) > 1 or n_videos == 1
        model = SsadModel(6, cfg, 4)
        pyramid = model.pyramid
        got = infer(model, records, feats)
        x = np.stack([_prepare_input(feats[r.video_id], cfg) for r in records])
        scores = loop_infer_scores(model, x)
        assert list(got) == [r.video_id for r in records]
        for rec, row in zip(records, scores):
            want = ProposalSet(pyramid.starts * rec.duration,
                               pyramid.ends * rec.duration, row, Source.SSAD)
            for column in ("starts", "ends", "scores", "sources"):
                assert getattr(got[rec.video_id], column).tobytes() == \
                    getattr(want, column).tobytes()


class TestTraining:
    CFG = SsadConfig(input_length=16, hidden_channels=8,
                     epochs=4, batch_size=4)

    def test_deterministic(self):
        records, feats = _tiny_dataset()
        a = SsadModel(4, self.CFG, 7)
        b = SsadModel(4, self.CFG, 7)
        trace_a = train(a, records, feats, self.CFG, seed=7)
        trace_b = train(b, records, feats, self.CFG, seed=7)
        assert trace_a == trace_b
        assert np.array_equal(a.params, b.params)

    def test_zero_epochs_leaves_model_untouched(self):
        records, feats = _tiny_dataset()
        cfg = SsadConfig(input_length=16, hidden_channels=8, epochs=0)
        model = SsadModel(4, cfg, 7)
        before = model.params.copy()
        assert train(model, records, feats, cfg, seed=7) == []
        assert np.array_equal(model.params, before)

    def test_loss_decreases(self):
        records, feats = _tiny_dataset(n_videos=20, seed=6)
        cfg = SsadConfig(input_length=16, hidden_channels=8,
                         epochs=30, batch_size=4, learning_rate=3e-3)
        model = SsadModel(4, cfg, 6)
        trace = train(model, records, feats, cfg, seed=6)
        assert trace[-1] < 0.5 * trace[0]

    def test_single_video_converges(self):
        # one video, many epochs: the net should memorize its target vector
        rec = VideoRecord("v", 30.0, Subset.TRAINING, ("a",), [10.0], [20.0])
        feats = {"v": FeatureSequence(np.random.default_rng(8).standard_normal((15, 4)).astype(np.float32))}
        cfg = SsadConfig(input_length=16, hidden_channels=8,
                         epochs=200, batch_size=1, learning_rate=3e-3)
        model = SsadModel(4, cfg, 8)
        trace = train(model, [rec], feats, cfg, seed=8)
        assert trace[-1] < 1e-3


class TestCheckpoint:
    def test_round_trip_same_inference(self, tmp_path):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        model = SsadModel(4, cfg, 9)
        path = tmp_path / "ssad.tapm"
        save_model(model, path)
        loaded = load_weights(SsadModel(4, cfg, 0), path)
        rec = VideoRecord("v", 25.0, Subset.VALIDATION)
        seq = FeatureSequence(np.random.default_rng(9).standard_normal((7, 4)).astype(np.float32))
        a = infer(model, [rec], {"v": seq})["v"]
        b = infer(loaded, [rec], {"v": seq})["v"]
        assert list(a) == list(b)

    def test_architecture_mismatch(self, tmp_path):
        cfg = SsadConfig(input_length=16, hidden_channels=8)
        path = tmp_path / "ssad.tapm"
        save_model(SsadModel(4, cfg, 0), path)
        other = SsadConfig(input_length=16, hidden_channels=16)
        with pytest.raises(ConfigError):
            load_weights(SsadModel(4, other, 0), path)
