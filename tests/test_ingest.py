import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracles import json_dump_localization, json_dump_results, loop_read_columns

from tapkit.core import Subset, VideoRecord, subset_videos
from tapkit.errors import ConfigError, DataError
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
    snippets_inside,
    write_classification,
    write_localization,
    write_results,
)
from tapkit.core import ProposalSet
from tapkit.metrics import attach_labels


def _annotation_bytes(videos, path):
    save_annotations(videos, path)
    return path.read_bytes()


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
        videos = load_annotations(path)
        assert set(videos) == {"va", "vb"}
        assert [rec.labels for rec in videos.values()] == [("jump",), ()]
        rec = videos["va"]
        assert rec.subset is Subset.TRAINING
        assert (rec.labels, rec.starts.tolist(), rec.ends.tolist()) == (("jump",), [10.0], [20.0])

    def test_empty_database_is_valid(self, tmp_path):
        path = _write(tmp_path, "ann.json", {"version": "1.0", "database": {}})
        assert load_annotations(path) == {}

    def test_bad_subset_rejected(self, tmp_path):
        path = _write(tmp_path, "ann.json", {
            "database": {"v": {"duration": 15.0, "subset": "holdout", "annotations": []}},
        })
        with pytest.raises(DataError, match="subset must be training/validation/testing"):
            load_annotations(path)

    def test_missing_database(self, tmp_path):
        path = _write(tmp_path, "ann.json", {"version": "1.0"})
        with pytest.raises(DataError, match="missing or malformed 'database' map"):
            load_annotations(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="cannot parse annotation file"):
            load_annotations(path)

    @pytest.mark.parametrize("video", [
        {"duration": True, "subset": "training", "annotations": []},
        {"duration": 60.0, "subset": "training",
         "annotations": [{"label": "x", "segment": [False, True]}]},
    ], ids=["duration", "segment"])
    def test_boolean_numbers_rejected(self, tmp_path, video):
        # bool is an int subclass; true must not read as 1
        path = _write(tmp_path, "ann.json", {"database": {"v": video}})
        with pytest.raises(DataError,
                           match=r"database\.v\.(duration|annotations\[0\]\.segment) must be"):
            load_annotations(path)

    @pytest.mark.parametrize("label", [None, 5, {"x": 1}, ["a"], True])
    def test_non_string_label_rejected(self, tmp_path, label):
        # an int label must not silently match the string "5" of another file
        path = _write(tmp_path, "ann.json", {"database": {"v": {
            "duration": 60.0, "subset": "training",
            "annotations": [{"label": label, "segment": [1.0, 2.0]}]}}})
        with pytest.raises(DataError, match=r"database\.v\.annotations\[0\]\.label"):
            load_annotations(path)

    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(num_videos=12)
        videos, _, _ = generate_synthetic(cfg, 3)
        path = tmp_path / "ann.json"
        save_annotations(videos, path)
        back = load_annotations(path)
        assert ({vid: rec.labels for vid, rec in back.items()}
                == {vid: rec.labels for vid, rec in videos.items()})
        assert _annotation_bytes(back, tmp_path / "back.json") == path.read_bytes()


class TestResizeLinear:
    def test_two_row_example(self):
        seq = FeatureSequence(np.array([[0.0], [1.0]]))
        out = resize_linear(seq, 3)
        assert out.dtype == np.float32
        assert out.tolist() == [[0.0], [0.5], [1.0]]

    def test_same_length_is_identity(self):
        data = np.random.default_rng(0).standard_normal((7, 3)).astype(np.float32)
        seq = FeatureSequence(data)
        out = resize_linear(seq, 7)
        assert np.array_equal(out, data)

    def test_single_row_broadcasts(self):
        out = resize_linear(FeatureSequence(np.array([[7.0]])), 4)
        assert out.tolist() == [[7.0]] * 4

    def test_endpoints_preserved(self):
        data = np.random.default_rng(1).standard_normal((5, 2)).astype(np.float32)
        out = resize_linear(FeatureSequence(data), 11)
        assert np.array_equal(out[0], data[0])
        assert np.array_equal(out[-1], data[-1])

    @settings(max_examples=50)
    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=17),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_output_within_input_hull(self, t, length, seed):
        # linear interpolation cannot overshoot the per-column value range
        data = np.random.default_rng(seed).uniform(-5, 5, size=(t, 2)).astype(np.float32)
        out = resize_linear(FeatureSequence(data), length)
        eps = 1e-5
        for c in range(2):
            assert out[:, c].min() >= data[:, c].min() - eps
            assert out[:, c].max() <= data[:, c].max() + eps


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((10, 4)).astype(np.float32)
        path = tmp_path / "v.feat"
        save_features(FeatureSequence(data), path)
        back = load_features(path)
        assert np.array_equal(back.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.feat"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(DataError, match="magic"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "v.feat"
        # header promises 10x4 floats, body carries 39
        blob = b"TAPF" + struct.pack("<III", 1, 10, 4)
        blob += np.zeros(39, dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(DataError, match="corrupt"):
            load_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "v.feat"
        save_features(FeatureSequence(np.zeros((3, 2), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(DataError, match="corrupt payload"):
            load_features(path)

    @pytest.mark.parametrize("t, d, payload", [(0, 2, b""), (1, 1, np.float32(np.nan).tobytes())])
    def test_bad_sequence_in_file_names_the_file(self, tmp_path, t, d, payload):
        path = tmp_path / "v.feat"
        path.write_bytes(b"TAPF" + struct.pack("<III", 1, t, d) + payload)
        with pytest.raises(DataError) as exc:
            load_features(path)
        assert str(exc.value).startswith(f"{path}: feature sequence ")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="feature sequence has non-finite values"):
            FeatureSequence(np.array([[np.inf, 0.0]]))

    def test_shape_rejected(self):
        with pytest.raises(DataError, match=r"must be T x D with T, D >= 1, got shape \(5,\)"):
            FeatureSequence(np.zeros(5))


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        cfg = SynthConfig(num_videos=10)
        a_videos, a_feats, a_cls = generate_synthetic(cfg, 9)
        b_videos, b_feats, b_cls = generate_synthetic(cfg, 9)
        assert (_annotation_bytes(a_videos, tmp_path / "a.json")
                == _annotation_bytes(b_videos, tmp_path / "b.json"))
        assert a_cls == b_cls
        for vid in a_feats:
            assert np.array_equal(a_feats[vid].data, b_feats[vid].data)

    def test_seed_changes_output(self, tmp_path):
        a = generate_synthetic(SynthConfig(num_videos=10), 1)[0]
        b = generate_synthetic(SynthConfig(num_videos=10), 2)[0]
        assert _annotation_bytes(a, tmp_path / "a.json") != _annotation_bytes(b, tmp_path / "b.json")

    def test_feature_dim_must_cover_classes(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SynthConfig(num_videos=4, feature_dim=3, num_classes=5), 0)

    def test_split_sizes(self):
        videos, _, _ = generate_synthetic(SynthConfig(num_videos=20, val_fraction=0.25), 0)
        assert len(subset_videos(videos, Subset.TRAINING)) == 15
        assert len(subset_videos(videos, Subset.VALIDATION)) == 5

    def test_instances_sorted_and_disjoint(self):
        videos, _, _ = generate_synthetic(SynthConfig(num_videos=40), 5)
        for rec in videos.values():
            spans = list(zip(rec.starts.tolist(), rec.ends.tolist()))
            for a, b in zip(spans, spans[1:]):
                assert a[0] <= b[0]
                assert min(a[1], b[1]) <= max(a[0], b[0])  # no overlap
            for start, end in spans:
                assert 0.0 <= start < end <= rec.duration

    def test_signal_mean_matches_generator(self):
        cfg = SynthConfig(num_videos=60)
        videos, feats, cls = generate_synthetic(cfg, 11)
        label_col = {f"class_{c}": c for c in range(cfg.num_classes)}
        inside_vals = []
        for rec in videos.values():
            col = label_col[cls[rec.video_id][0][0]]
            data = feats[rec.video_id].data
            mask = snippets_inside(data.shape[0], rec.duration, rec.starts, rec.ends)
            inside_vals.append(data[mask, col])
        pooled = np.concatenate(inside_vals)
        bound = 3.0 * cfg.noise_sigma / np.sqrt(pooled.size)
        assert abs(pooled.mean() - cfg.signal_strength) < bound

    def test_classification_is_oracle(self):
        videos, _, cls = generate_synthetic(SynthConfig(num_videos=8), 4)
        for vid, rows in cls.items():
            assert len(rows) >= 1
            assert rows[0][1] == 1.0
            labels = set(videos[vid].labels)
            if labels:
                assert rows[0][0] in labels


class TestResultsFiles:
    def _pset(self):
        return ProposalSet([0.0, 5.0], [10.0, 25.0], [0.9, 0.4])

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
        with pytest.raises(DataError, match="segment"):
            read_results(path)

    def test_reversed_segment(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [9.0, 2.0], "score": 0.5}]},
        })
        with pytest.raises(DataError, match=r"results\.v: row 0: need finite start < end"):
            read_results(path)

    def test_missing_score(self, tmp_path):
        path = _write(tmp_path, "props.json", {
            "results": {"v": [{"segment": [0.0, 2.0]}]},
        })
        with pytest.raises(DataError, match="score"):
            read_results(path)

    @pytest.mark.parametrize("entry", [
        {"segment": [False, True], "score": 0.5},
        {"segment": [0.0, 1.0], "score": True},
    ], ids=["segment", "score"])
    @pytest.mark.parametrize("reader", [read_results])
    def test_boolean_numbers_rejected(self, tmp_path, reader, entry):
        path = _write(tmp_path, "props.json", {"results": {"v": [{**entry, "label": "x"}]}})
        with pytest.raises(DataError, match=r"results\.v\[0\]\.(segment|score) must be"):
            reader(path)

    def test_missing_results_map(self, tmp_path):
        path = _write(tmp_path, "props.json", {"version": "1.0"})
        with pytest.raises(DataError, match="missing 'results' map"):
            read_results(path)

    @pytest.mark.parametrize("name", ["proposals_ssad.json", "proposals_tag.json",
                                      "proposals_refined.json", "proposals_ssad_final.json"])
    def test_pipeline_files_round_trip_byte_for_byte(self, fixture42, tmp_path, name):
        # scalars must reach json as Python floats: a NumPy float32 or a
        # repr of np.float64 would change the bytes
        path = fixture42.cfg.output_dir / name
        write_results(read_results(path), tmp_path / name)
        assert (tmp_path / name).read_bytes() == path.read_bytes()

    def test_localization_file_byte_for_byte(self, fixture42, tmp_path):
        cfg = fixture42.cfg
        localization = attach_labels(read_results(cfg.output_dir / "proposals_refined.json"),
                                     read_classification(cfg.classification), cfg.eval.top_c)
        write_localization(localization, tmp_path / "localization.json")
        assert ((tmp_path / "localization.json").read_bytes()
                == (cfg.output_dir / "localization.json").read_bytes())

    def test_writer_streams(self, tmp_path):
        # 64 videos of 225 proposals, the size of a propose-workload file: the
        # writer holds one video's text at a time, not the whole envelope
        rng = np.random.default_rng(0)
        sets = {}
        for v in range(64):
            vid, starts = f"v{v:05d}", rng.uniform(0.0, 50.0, 225)
            sets[vid] = ProposalSet(starts, starts + rng.uniform(0.5, 10.0, 225),
                                    rng.uniform(0.0, 1.0, 225))
        tracemalloc.start()
        try:
            write_results(sets, tmp_path / "props.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"write_results peaked at {peak} bytes"


# --------------------------------------------------------------------------
# the results encoder writes json.dump's bytes

_EDGE_FLOATS = [5e-324, 1e16, 0.1 + 0.2, 1e-7, 123456789.125, 1.0]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_text = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "é☃\U0001f600"])
# (start, end, score) rows that a ProposalSet accepts: start < end, and a
# length end - start that does not overflow
_rows = st.lists(st.tuples(st.just(-0.0) | _finite, _finite,
                           st.floats(0.0, 1.0) | st.sampled_from([5e-324, 0.1 + 0.2]))
                 .filter(lambda r: r[0] < r[1] and math.isfinite(r[1] - r[0])), max_size=4)
_EDGE_ROWS = [(-0.0, 5e-324, 0.1 + 0.2), (0.1 + 0.2, 1e16, 5e-324), (-1e16, -0.0, 1.0)]


class TestResultsEncoder:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(_text, _rows, max_size=4))
    @example({})
    @example({"": [], "v\u2028\"": _EDGE_ROWS, "é": []})
    def test_write_results_matches_json_dump(self, tmp_path, rows):
        sets = {vid: ProposalSet([r[0] for r in rs], [r[1] for r in rs], [r[2] for r in rs])
                for vid, rs in rows.items()}
        write_results(sets, tmp_path / "props.json")
        assert (tmp_path / "props.json").read_bytes() == json_dump_results(sets)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(_text, st.lists(st.tuples(_text, _finite, _finite, _finite), max_size=4),
                           max_size=4))
    @example({})
    @example({"": [], "v": [("\\\"\x01\u2028", -0.0, 5e-324, 0.1 + 0.2), ("", 1e16, -1e16, 0.0)]})
    def test_write_localization_matches_json_dump(self, tmp_path, localization):
        write_localization(localization, tmp_path / "loc.json")
        assert (tmp_path / "loc.json").read_bytes() == json_dump_localization(localization)


class TestClassificationFiles:
    def test_round_trip_sorted_by_confidence(self, tmp_path):
        path = tmp_path / "cls.json"
        write_classification({"v": [("a", 0.2), ("b", 0.8)]}, path)
        back = read_classification(path)
        assert back["v"] == [("b", 0.8), ("a", 0.2)]

    def test_score_out_of_range(self, tmp_path):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": 1.5}]})
        with pytest.raises(DataError, match=r"v\[0\]\.score must be a number in \[0, 1\]"):
            read_classification(path)

    # NaN and the infinities fail the same range test, with the same message
    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_out_of_range(self, tmp_path, score):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": score}]})
        with pytest.raises(DataError, match=r"v\[0\]\.score must be a number in \[0, 1\]"):
            read_classification(path)

    @pytest.mark.parametrize("score", [True, "0.5", [0.5]])
    def test_score_must_be_a_number(self, tmp_path, score):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": score}]})
        with pytest.raises(DataError, match="score"):
            read_classification(path)

    def test_missing_keys(self, tmp_path):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a"}]})
        with pytest.raises(DataError,
                           match=r"v\[0\]\.score must be a number in \[0, 1\], got None$"):
            read_classification(path)

    @pytest.mark.parametrize("label", [None, 5, {"x": 1}, ["a"], True])
    def test_non_string_label_rejected(self, tmp_path, label):
        path = _write(tmp_path, "cls.json", {"v": [{"label": "a", "score": 0.9},
                                                   {"label": label, "score": 0.5}]})
        with pytest.raises(DataError, match=r"v\[1\]\.label"):
            read_classification(path)


def test_snippet_centers():
    # 4 snippets over 8 s: centers 1, 3, 5 and 7, each in [start, end) or not
    assert snippets_inside(4, 8.0, [], []).tolist() == [False] * 4
    assert snippets_inside(4, 8.0, [1.0, 6.0], [3.0, 8.0]).tolist() == [True, False, False, True]
    assert snippets_inside(4, 8.0, [3.0], [5.0]).tolist() == [False, True, False, False]
    assert snippets_inside(4, 8.0, [0.0], [8.0]).tolist() == [True] * 4


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
    message = {"annotations.json": r"database\.v\.duration must be a number",
               "results.json": (r"results\.v\[0\]\.segment must be a \[start, end\] pair of "
                                r"numbers, got \[0, 10{400}\]$"),
               "classification.json": r"v\[0\]\.score must be a number in \[0, 1\], got 10{400}$",
               }[name]
    with pytest.raises(DataError, match=message):
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
        except DataError:
            pass


# --------------------------------------------------------------------------
# the column-wise readers against the entry-by-entry ones: same output, same messages

_number_like = st.sampled_from([0, 1, 7, -3, 10**300, 10**400, True, False, None, "1.5", 0.25,
                                -0.0, 1e308, -1.7e308, 1.7e308, float("nan"), float("inf")])
_reader_value = _number_like | st.floats(-2.0, 120.0) | st.integers(-5, 200)
_segment = (st.tuples(_reader_value, _reader_value).map(list)
            | st.lists(_reader_value, max_size=3) | _reader_value | st.just({"a": 1}))
_label = st.sampled_from(["x", "", "5"]) | _reader_value | st.lists(st.just("x"), max_size=1)


@st.composite
def _reader_entry(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_reader_value | st.lists(_reader_value, max_size=2))  # not an object
    entry = {}
    for key, value in (("segment", _segment), ("score", _reader_value), ("label", _label)):
        if draw(st.integers(0, 9)):
            entry[key] = draw(value)
    return entry


@st.composite
def _mostly_good_entry(draw):
    start = draw(st.integers(0, 50) | st.floats(0.0, 50.0))
    end = start + draw(st.integers(1, 50) | st.floats(0.5, 50.0))
    score = draw(st.sampled_from([0, 1]) | st.floats(0.0, 1.0))
    label = draw(st.sampled_from(["a", "b", "a", "b", "", 5, True]))  # now and then not a string
    return {"segment": [start, end], "score": score, "label": label}


# a video's entry list; one in ten is not a list
_entry_lists = st.integers(0, 9).flatmap(
    lambda k: st.lists(_mostly_good_entry() | _reader_entry(), max_size=5) if k else _reader_value)


def _entry_file(name, videos, duration=100.0, subset="training"):
    """A results, annotation or classification file of each video's entry list."""
    if name == "results.json":
        return {"results": videos}
    if name == "classification.json":
        return videos
    return {"database": {vid: {"duration": duration, "subset": subset, "annotations": entries}
                         for vid, entries in videos.items()}}


def _reference_read(path):
    """A reader's output by the entry-by-entry oracle, or its message."""
    build = {"results.json": ProposalSet, "annotations.json": VideoRecord,
             "classification.json": list}[path.name]
    out = {}
    try:
        for where, vid, values in loop_read_columns(path):
            try:
                out[vid] = build(*values)
            except DataError as exc:
                return f"{path}: {where}: {exc}"
    except ValueError as exc:
        return f"{path}: {exc}"
    return out


def _bits(value):
    """A reader's output for one video as bit-exact plain data."""
    if isinstance(value, ProposalSet):
        return [value.starts.tobytes(), value.ends.tobytes(), value.scores.tobytes()]
    if isinstance(value, VideoRecord):
        return [repr(value.duration), value.subset, value.labels, value.starts.tobytes(),
                value.ends.tobytes()]
    return repr(value)  # classification rows; repr tells -0.0 and ints apart


class TestReaderColumns:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(["annotations.json", "classification.json", "results.json"]),
           videos=st.dictionaries(st.text(max_size=3), _entry_lists, max_size=3),
           duration=st.sampled_from([100, 120.0, 100.0, 120, 60.5, True, None, math.inf, 10**400]),
           subset=st.sampled_from(["training", "validation", "testing", "holdout"]))
    def test_same_sets_and_messages_as_entry_scan(self, tmp_path, name, videos, duration, subset):
        path = tmp_path / name
        path.write_text(json.dumps(_entry_file(name, videos, duration, subset)))
        want = _reference_read(path)
        try:
            got = _READERS[name](path)
        except DataError as exc:
            assert str(exc) == want
            return
        assert not isinstance(want, str), want
        assert [(vid, _bits(value)) for vid, value in got.items()] == [
            (vid, _bits(value)) for vid, value in want.items()]

    @pytest.mark.parametrize("name, entries, message", [
        ("results.json", [{"segment": [0, 5], "score": 1}, {"segment": [1, 2.5], "score": 0.5}],
         None),
        ("results.json", [{"segment": [0, 5], "score": True}],
         r"results\.v\[0\]\.score must be a number, got True$"),
        ("results.json", [{"segment": [0.0, 1.0], "score": 0.5},
                          {"segment": [False, 2.0], "score": 0.5}],
         r"results\.v\[1\]\.segment must be a \[start, end\] pair of numbers, "
         r"got \[False, 2\.0\]$"),
        ("results.json", [{"segment": [0.0, 10**400], "score": 0.5}],
         r"results\.v\[0\]\.segment must be a \[start, end\] pair of numbers, "
         r"got \[0\.0, 10{400}\]$"),
        ("results.json", [{"segment": [0.0, 10**300], "score": 0}], None),
        ("results.json", [{"score": 0.5}, 3],
         r"results\.v\[0\]\.segment must be a \[start, end\] pair of numbers, got None$"),
        ("results.json", [{"segment": [0.0, 1.0], "score": 0.5}, 3],
         r"results\.v\[1\] is not an object$"),
        ("annotations.json", [{"label": "a", "segment": [0, 5]}, {"label": 5, "segment": [1, 2]}],
         r"database\.v\.annotations\[1\]\.label must be a string, got 5$"),
        ("classification.json", [{"label": "a", "score": 0.5}, {"label": "b", "score": 2}],
         r"v\[1\]\.score must be a number in \[0, 1\], got 2$"),
        ("classification.json", [{"label": "a", "score": 0.5}, {"label": 5, "score": 1}],
         r"v\[1\]\.label must be a string, got 5$"),
    ], ids=["ints", "bool score", "bool start", "int beyond float", "huge int", "missing key",
            "not an object", "int label", "score beyond 1", "int class label"])
    def test_int_bool_and_mixed_values(self, tmp_path, name, entries, message):
        path = tmp_path / name
        path.write_text(json.dumps(_entry_file(name, {"v": entries})))
        want = _reference_read(path)
        if message is None:
            assert _bits(_READERS[name](path)["v"]) == _bits(want["v"])
        else:
            with pytest.raises(DataError, match=message) as info:
                _READERS[name](path)
            assert str(info.value) == want
