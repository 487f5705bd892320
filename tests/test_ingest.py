import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tapkit.cli import DATA_ERRORS
from tapkit.core import Subset, TemporalInterval
from tapkit.errors import ConfigError, DataFormatError
from tapkit.ingest import (
    FeatureSequence,
    SynthConfig,
    generate_synthetic,
    load_annotations,
    load_features,
    read_classification,
    read_results,
    resize_linear,
    save_annotations,
    save_features,
    snippet_centers,
    write_classification,
    write_localization,
    write_results,
)
from tapkit.core import ProposalSet


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestAnnotations:
    def test_parse_minimal(self, tmp_path):
        path = _write(tmp_path, "ann.json", {
            "version": "1.0",
            "database": {
                "va": {
                    "duration": 60.0,
                    "subset": "training",
                    "annotations": [{"label": "jump", "segment": [10.0, 20.0]}],
                },
                "vb": {"duration": 30.0, "subset": "validation", "annotations": []},
            },
        })
        index = load_annotations(path)
        assert set(index.videos) == {"va", "vb"}
        assert index.label_set == ("jump",)
        rec = index.videos["va"]
        assert rec.subset is Subset.TRAINING
        assert rec.instances[0].interval == TemporalInterval(10.0, 20.0)

    def test_empty_database_is_valid(self, tmp_path):
        path = _write(tmp_path, "ann.json", {"version": "1.0", "database": {}})
        index = load_annotations(path)
        assert index.videos == {} and index.label_set == ()

    def test_reversed_segment_rejected(self, tmp_path):
        path = _write(tmp_path, "ann.json", {
            "database": {
                "v": {"duration": 60.0, "subset": "training",
                      "annotations": [{"label": "x", "segment": [20.0, 10.0]}]},
            },
        })
        with pytest.raises(DataFormatError, match="reversed"):
            load_annotations(path)

    def test_segment_outside_duration_rejected(self, tmp_path):
        path = _write(tmp_path, "ann.json", {
            "database": {
                "v": {"duration": 15.0, "subset": "training",
                      "annotations": [{"label": "x", "segment": [10.0, 20.0]}]},
            },
        })
        with pytest.raises(DataFormatError):
            load_annotations(path)

    def test_bad_subset_rejected(self, tmp_path):
        path = _write(tmp_path, "ann.json", {
            "database": {"v": {"duration": 15.0, "subset": "holdout", "annotations": []}},
        })
        with pytest.raises(DataFormatError):
            load_annotations(path)

    def test_missing_database(self, tmp_path):
        path = _write(tmp_path, "ann.json", {"version": "1.0"})
        with pytest.raises(DataFormatError):
            load_annotations(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_annotations(path)

    @pytest.mark.parametrize("video", [
        {"duration": True, "subset": "training", "annotations": []},
        {"duration": 60.0, "subset": "training",
         "annotations": [{"label": "x", "segment": [False, True]}]},
    ], ids=["duration", "segment"])
    def test_boolean_numbers_rejected(self, tmp_path, video):
        # bool is an int subclass; true must not read as 1
        path = _write(tmp_path, "ann.json", {"database": {"v": video}})
        with pytest.raises(DataFormatError):
            load_annotations(path)

    @pytest.mark.parametrize("label", [None, 5, {"x": 1}, ["a"], True])
    def test_non_string_label_rejected(self, tmp_path, label):
        # an int label must not silently match the string "5" of another file
        path = _write(tmp_path, "ann.json", {"database": {"v": {
            "duration": 60.0, "subset": "training",
            "annotations": [{"label": label, "segment": [1.0, 2.0]}]}}})
        with pytest.raises(DataFormatError, match=r"database\.v\.annotations\[0\]\.label"):
            load_annotations(path)

    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(num_videos=12, seed=3)
        index, _, _ = generate_synthetic(cfg)
        path = tmp_path / "ann.json"
        save_annotations(index, path)
        back = load_annotations(path)
        assert back == index


class TestResizeLinear:
    def test_two_row_example(self):
        seq = FeatureSequence("v", np.array([[0.0], [1.0]]))
        out = resize_linear(seq, 3)
        assert out.data.tolist() == [[0.0], [0.5], [1.0]]

    def test_same_length_is_identity(self):
        data = np.random.default_rng(0).standard_normal((7, 3)).astype(np.float32)
        seq = FeatureSequence("v", data)
        out = resize_linear(seq, 7)
        assert np.array_equal(out.data, data)

    def test_single_row_broadcasts(self):
        out = resize_linear(FeatureSequence("v", np.array([[7.0]])), 4)
        assert out.data.tolist() == [[7.0]] * 4

    def test_endpoints_preserved(self):
        data = np.random.default_rng(1).standard_normal((5, 2)).astype(np.float32)
        out = resize_linear(FeatureSequence("v", data), 11)
        assert np.array_equal(out.data[0], data[0])
        assert np.array_equal(out.data[-1], data[-1])

    def test_bad_length(self):
        with pytest.raises(DataFormatError):
            resize_linear(FeatureSequence("v", np.zeros((3, 2))), 0)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=17),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_output_within_input_hull(self, t, length, seed):
        # linear interpolation cannot overshoot the per-column value range
        data = np.random.default_rng(seed).uniform(-5, 5, size=(t, 2)).astype(np.float32)
        out = resize_linear(FeatureSequence("v", data), length).data
        eps = 1e-5
        for c in range(2):
            assert out[:, c].min() >= data[:, c].min() - eps
            assert out[:, c].max() <= data[:, c].max() + eps


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((10, 4)).astype(np.float32)
        path = tmp_path / "v.feat"
        save_features(FeatureSequence("v", data), path)
        back = load_features(path, "v")
        assert back.video_id == "v"
        assert np.array_equal(back.data, data)

    def test_video_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "clip42.feat"
        save_features(FeatureSequence("x", np.zeros((2, 2), dtype=np.float32)), path)
        assert load_features(path).video_id == "clip42"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.feat"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(DataFormatError, match="magic"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "v.feat"
        # header promises 10x4 floats, body carries 39
        blob = b"TAPF" + struct.pack("<III", 1, 10, 4)
        blob += np.zeros(39, dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match="corrupt"):
            load_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "v.feat"
        save_features(FeatureSequence("v", np.zeros((3, 2), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(DataFormatError):
            load_features(path)

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError):
            FeatureSequence("v", np.array([[np.inf, 0.0]]))

    def test_shape_rejected(self):
        with pytest.raises(DataFormatError):
            FeatureSequence("v", np.zeros(5))


class TestSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(num_videos=10, seed=9)
        a_index, a_feats, a_cls = generate_synthetic(cfg)
        b_index, b_feats, b_cls = generate_synthetic(cfg)
        assert a_index == b_index
        assert a_cls == b_cls
        for vid in a_feats:
            assert np.array_equal(a_feats[vid].data, b_feats[vid].data)

    def test_seed_changes_output(self):
        a = generate_synthetic(SynthConfig(num_videos=10, seed=1))[0]
        b = generate_synthetic(SynthConfig(num_videos=10, seed=2))[0]
        assert a != b

    def test_feature_dim_must_cover_classes(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SynthConfig(num_videos=4, feature_dim=3, num_classes=5))

    def test_split_sizes(self):
        index, _, _ = generate_synthetic(SynthConfig(num_videos=20, val_fraction=0.25, seed=0))
        assert len(index.subset_videos(Subset.TRAINING)) == 15
        assert len(index.subset_videos(Subset.VALIDATION)) == 5

    def test_instances_sorted_and_disjoint(self):
        index, _, _ = generate_synthetic(SynthConfig(num_videos=40, seed=5))
        for rec in index.videos.values():
            spans = [inst.interval for inst in rec.instances]
            for a, b in zip(spans, spans[1:]):
                assert a.start <= b.start
                assert min(a.end, b.end) <= max(a.start, b.start)  # no overlap
            for s in spans:
                assert 0.0 <= s.start < s.end <= rec.duration

    def test_signal_mean_matches_generator(self):
        cfg = SynthConfig(num_videos=60, seed=11)
        index, feats, cls = generate_synthetic(cfg)
        label_col = {f"class_{c}": c for c in range(cfg.num_classes)}
        inside_vals = []
        for rec in index.videos.values():
            col = label_col[cls[rec.video_id][0][0]]
            data = feats[rec.video_id].data
            centers = snippet_centers(data.shape[0], rec.duration)
            for inst in rec.instances:
                mask = (centers >= inst.interval.start) & (centers < inst.interval.end)
                inside_vals.append(data[mask, col])
        pooled = np.concatenate(inside_vals)
        bound = 3.0 * cfg.noise_sigma / np.sqrt(pooled.size)
        assert abs(pooled.mean() - cfg.signal_strength) < bound

    def test_classification_is_oracle(self):
        index, _, cls = generate_synthetic(SynthConfig(num_videos=8, seed=4))
        for vid, rows in cls.items():
            assert len(rows) >= 1
            assert rows[0][1] == 1.0
            labels = {inst.label for inst in index.videos[vid].instances}
            if labels:
                assert rows[0][0] in labels


class TestResultsFiles:
    def _pset(self):
        return ProposalSet("v1", [0.0, 5.0], [10.0, 25.0], [0.9, 0.4])

    def test_proposal_round_trip(self, tmp_path):
        path = tmp_path / "props.json"
        write_results({"v1": self._pset()}, path)
        back = read_results(path)
        assert set(back) == {"v1"}
        got = [(p.start, p.end, p.score) for p in back["v1"]]
        assert got == [(0.0, 10.0, 0.9), (5.0, 25.0, 0.4)]

    def test_proposal_file_tolerates_labels(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [0, 5], "score": 0.5, "label": "x"}]},
        })
        assert len(read_results(path)["v"]) == 1

    def test_localization_round_trip(self, tmp_path):
        loc = {"v": [("jump", 0.0, 5.0, 0.75)]}
        path = tmp_path / "loc.json"
        write_localization(loc, path)
        entries = json.loads(path.read_text())["results"]
        assert entries == {"v": [{"label": "jump", "segment": [0.0, 5.0], "score": 0.75}]}
        back = read_results(path)["v"]
        assert [(p.start, p.end, p.score) for p in back] == [(0.0, 5.0, 0.75)]

    def test_malformed_segment(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [1.0], "score": 0.5}]},
        })
        with pytest.raises(DataFormatError, match="segment"):
            read_results(path)

    def test_reversed_segment(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [9.0, 2.0], "score": 0.5}]},
        })
        with pytest.raises(DataFormatError):
            read_results(path)

    def test_missing_score(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [0.0, 2.0]}]},
        })
        with pytest.raises(DataFormatError, match="score"):
            read_results(path)

    @pytest.mark.parametrize("entry", [
        {"segment": [False, True], "score": 0.5},
        {"segment": [0.0, 1.0], "score": True},
    ], ids=["segment", "score"])
    @pytest.mark.parametrize("reader", [read_results])
    def test_boolean_numbers_rejected(self, tmp_path, reader, entry):
        path = _write(tmp_path, "props.json", {"results": {"v": [{**entry, "label": "x"}]}})
        with pytest.raises(DataFormatError):
            reader(path)

    def test_missing_results_map(self, tmp_path):
        path = _write(tmp_path, "props.json", {"version": "1.0"})
        with pytest.raises(DataFormatError):
            read_results(path)

    @pytest.mark.parametrize("name", ["proposals_ssad.json", "proposals_tag.json",
                                      "proposals_refined.json", "proposals_ssad_final.json"])
    def test_pipeline_files_round_trip_byte_for_byte(self, fixture42, tmp_path, name):
        # scalars must reach json as Python floats: a NumPy float32 or a
        # repr of np.float64 would change the bytes
        path = fixture42.cfg.output_dir / name
        write_results(read_results(path), tmp_path / name)
        assert (tmp_path / name).read_bytes() == path.read_bytes()


class TestClassificationFiles:
    def test_round_trip_sorted_by_confidence(self, tmp_path):
        path = tmp_path / "cls.json"
        write_classification({"v": [("a", 0.2), ("b", 0.8)]}, path)
        back = read_classification(path)
        assert back["v"] == [("b", 0.8), ("a", 0.2)]

    def test_score_out_of_range(self, tmp_path):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": 1.5}]})
        with pytest.raises(DataFormatError):
            read_classification(path)

    @pytest.mark.parametrize("score", [True, "0.5", [0.5]])
    def test_score_must_be_a_number(self, tmp_path, score):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": score}]})
        with pytest.raises(DataFormatError, match="score"):
            read_classification(path)

    def test_missing_keys(self, tmp_path):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a"}]})
        with pytest.raises(DataFormatError):
            read_classification(path)

    @pytest.mark.parametrize("label", [None, 5, {"x": 1}, ["a"], True])
    def test_non_string_label_rejected(self, tmp_path, label):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": 0.9},
                                                   {"label": label, "score": 0.5}]})
        with pytest.raises(DataFormatError, match=r"v\[1\]\.label"):
            read_classification(path)


def test_snippet_centers():
    assert snippet_centers(4, 8.0).tolist() == [1.0, 3.0, 5.0, 7.0]


# --------------------------------------------------------------------------
# fuzzing: whatever the bytes, a reader parses them or raises an exit-3 error

_READERS = {
    "annotations.json": load_annotations,
    "results.json": read_results,
    "classification.json": read_classification,
    "v.feat": load_features,
}

_json_leaf = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
              | st.integers() | st.sampled_from([10**400, -(10**400)]))
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _valid_payloads(v):
    """One well-formed file per reader with the value v at every leaf position."""
    video = {"duration": v, "subset": "training", "annotations": [{"label": v, "segment": [v, 5]}]}
    return {
        "annotations.json": json.dumps({"database": {"v": video}}).encode(),
        "results.json": json.dumps({"results": {"v": [{"segment": [0, v], "score": v}]}}).encode(),
        "classification.json": json.dumps({"v": [{"label": v, "score": v}]}).encode(),
        "v.feat": b"TAPF" + struct.pack("<III", 1, 2, 1) + np.float32([1, 2]).tobytes(),
    }


@st.composite
def _file_bytes(draw, name):
    """Arbitrary bytes, or a valid file with arbitrary leaves, cuts and byte flips."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    blob = bytearray(_valid_payloads(draw(_json_value))[name])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, max(len(blob) - 1, 0)))
        if draw(st.booleans()):
            del blob[i:]
        elif blob:
            blob[i] = draw(st.integers(0, 255))
    return bytes(blob)


@pytest.mark.parametrize("name", ["annotations.json", "results.json", "classification.json"])
def test_integers_beyond_float_range_rejected(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(_valid_payloads(10**400)[name])
    with pytest.raises(DataFormatError):
        _READERS[name](path)


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_parse_or_raise_data_error(self, tmp_path, data):
        name = data.draw(st.sampled_from(sorted(_READERS)))
        path = tmp_path / name
        path.write_bytes(data.draw(_file_bytes(name)))
        try:
            _READERS[name](path)
        except DATA_ERRORS:
            pass
