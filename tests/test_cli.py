import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import tapkit
from conftest import record_criterion
from golden import PLACEMENTS, TINY, fingerprint, golden_path, tiny7_config, verify_golden
from tapkit import __version__
from tapkit.cli import main
from tapkit.errors import ConfigError, TapkitError
from tapkit.core import ProposalSet, Source
from tapkit.fusion import NmsConfig, RefineConfig, nms, refine
from tapkit.ingest import FeatureSequence, SynthConfig, read_results, save_features, write_results
from tapkit.pipeline import (
    _PRODUCERS,
    SECTIONS,
    STAGES,
    EvalOptions,
    _input,
    config_defaults,
    load_config,
    run_command,
)
from tapkit.ssad import SsadConfig
from tapkit.tag import TagConfig
from tapkit.util import sha256_file


def _tiny_args(out, extra=()):
    args = ["--out", str(out), "--seed", "7"]
    for kv in (*TINY, *extra):
        args += ["--set", kv]
    return args


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Every artifact of one TINY pipeline run, for tests that remove one."""
    out = tmp_path_factory.mktemp("tiny")
    assert main(["pipeline", *_tiny_args(out)]) == 0
    return out


@pytest.fixture(scope="module", params=PLACEMENTS)
def placement_run(request, tmp_path_factory):
    """The config of a pinned TINY pipeline run (golden.tiny7_config)."""
    cfg = tiny7_config(tmp_path_factory.mktemp(request.param), request.param)
    run_command(cfg, "pipeline")
    return cfg


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_command_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0

    def test_config_error_unknown_key(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--set", "nope.key=1"]) == 2

    def test_config_error_bad_value(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--set", "synth.num_videos=0"]) == 2

    @pytest.mark.parametrize("kv, message", [
        ("ssad.epochs=-1", "ssad.epochs must be >= 0, got -1"),
        ("tag.epochs=-1", "tag.epochs must be >= 0, got -1"),
        ("ssad.batch_size=0", "ssad.batch_size must be >= 1, got 0"),
        ("tag.batch_size=0", "tag.batch_size must be >= 1, got 0"),
        ("ssad.hidden_channels=0", "ssad.hidden_channels must be >= 1, got 0"),
        ("tag.learning_rate=0", "tag.learning_rate must be > 0, got 0"),
        ("synth.signal_strength=0", "synth.signal_strength must be > 0, got 0"),
        ("synth.noise_sigma=0", "synth.noise_sigma must be > 0, got 0"),
        ("eval.top_c=0", "eval.top_c must be >= 1, got 0"),
        ("nms.iou_threshold=0", "nms.iou_threshold must lie in (0, 1], got 0"),
        ('nms.placement="x"', "nms.placement must be one of ('before', 'after', 'off'), got 'x'"),
        ("refine.iou_threshold=1", "refine.iou_threshold must lie in (0, 1), got 1"),
        ("synth.signal_strength=NaN", "synth.signal_strength must be finite, got NaN"),
        ("tag.learning_rate=-Infinity", "tag.learning_rate must be finite, got -Infinity"),
        ("synth.duration_range=[1, Infinity]",
         "synth.duration_range must be finite, got [1, Infinity]"),
        pytest.param("ssad.learning_rate=" + "9" * 401,
                     "ssad.learning_rate must be finite, got " + "9" * 401, id="401-digit-float"),
        ("synth.instances_range=[0,9223372036854775808]",
         "synth.instances_range[1] must be below 2**63, got 9223372036854775808"),
        pytest.param("synth.num_videos=" + "9" * 401,
                     "synth.num_videos must be below 2**63, got " + "9" * 401, id="401-digit-int"),
    ])
    def test_config_error_names_its_dotted_key(self, tmp_path, caplog, kv, message):
        assert main(["synth", "--out", str(tmp_path), "--set", kv]) == 2
        assert f"config error: {message}" in caplog.text

    def test_instance_count_below_2_63_is_drawn(self, tmp_path, caplog):
        # the largest count numpy can draw passes the config, then no video holds it
        kv = "synth.instances_range=[0,9223372036854775807]"
        assert main(["synth", "--out", str(tmp_path), "--set", kv]) == 3
        assert "could not place" in caplog.text

    def test_config_error_missing_file(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "absent.json")]) == 2

    def test_stage_dependency_error(self, tmp_path):
        assert main(["refine", "--out", str(tmp_path)]) == 5

    @pytest.mark.parametrize("error", [*TapkitError.__subclasses__(), RuntimeError],
                             ids=lambda error: error.__name__)
    def test_each_error_class_exits_with_its_code(self, tmp_path, caplog, monkeypatch, error):
        def fail(cfg):
            """A stage that fails (the parser shows this line as its help)."""
            raise error("injected failure")

        monkeypatch.setitem(STAGES, "synth", fail)
        code = main(["synth", "--out", str(tmp_path)])
        if error is RuntimeError:
            assert code == 1
            assert "unexpected error" in caplog.text
        else:
            assert code == error.exit_code
            assert f"{error.kind}: injected failure" in caplog.text

    @pytest.mark.parametrize("command", ["synth", "refine"])
    def test_config_error_on_out_naming_a_file(self, tmp_path, caplog, command):
        out = tmp_path / "file"
        out.write_text("")
        assert main([command, *_tiny_args(out)]) == 2
        assert f"output_dir {out}" in caplog.text

    @pytest.mark.parametrize("kv, key", [
        ("synth.duration_range=[1e300,1e300]", "duration_range[1] / snippet_length"),
        ("synth.snippet_length=1e-300", "duration_range[1] / snippet_length"),
        ("synth.feature_dim=4294967296", "feature_dim"),
    ])
    def test_config_error_on_synth_sizes_beyond_feature_files(self, tmp_path, caplog, kv, key):
        # a TAPF header holds the snippet count T and the dimension D as u32
        assert main(["synth", "--out", str(tmp_path), "--set", kv]) == 2
        assert f"{key} must be <= 4294967295" in caplog.text
        assert not (tmp_path / "annotations.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train-ssad", "ssad.hidden_channels", 2**32),
        ("train-ssad", "ssad.hidden_channels", 2**64),
        ("train-ssad", "ssad.base_kernel", 2**32 + 1),  # odd, as a kernel must be
        ("train-ssad", "ssad.base_kernel", 2**64 + 1),
        ("train-tag", "tag.hidden_width", 2**32),
        ("train-tag", "tag.hidden_width", 2**64),
    ])
    def test_config_error_on_model_sizes_beyond_checkpoints(self, tmp_path, caplog,
                                                            command, key, value):
        # a TAPM layer table holds channel counts and kernel widths as u32
        assert main([command, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        assert f"{key.partition('.')[2]} must be <= 4294967295, got {value}" in caplog.text

    def test_synth_sizes_at_the_feature_file_limit_are_valid(self):
        cfg = load_config(None, ["synth.duration_range=[4294967295.0,4294967295.0]",
                                 "synth.feature_dim=4294967295"], None, None)
        assert cfg.synth.duration_range[1] == cfg.synth.feature_dim == 2**32 - 1

    @pytest.mark.parametrize("key, kind", [
        ("features_dir", "file"), ("classification", "dir"), ("annotations", "dir")])
    def test_config_error_on_synth_path_key_of_wrong_kind(self, tmp_path, caplog, key, kind):
        taken = tmp_path / "taken"
        if kind == "dir":
            taken.mkdir()
        else:
            taken.write_text("kept")
        extra = [f"{key}={json.dumps(str(taken))}"]
        assert main(["synth", *_tiny_args(tmp_path / "out", extra)]) == 2
        assert f"{key} {taken}" in caplog.text
        assert taken.is_dir() if kind == "dir" else taken.read_text() == "kept"

    @pytest.mark.parametrize("command, name", [
        ("infer", "proposals_ssad.json"),
        ("eval-loc", "localization.json"),
        ("refine", "manifest_refine.json"),
    ])
    def test_config_error_on_artifact_path_taken_by_a_directory(self, tmp_path, caplog, tiny_run,
                                                                command, name):
        out = tmp_path / "out"
        shutil.copytree(tiny_run, out)
        taken = out / name
        taken.unlink(missing_ok=True)
        taken.mkdir()
        assert main([command, *_tiny_args(out)]) == 2
        assert f"output_dir {out} cannot be written" in caplog.text
        assert f"'{taken}'" in caplog.text
        assert taken.is_dir()

    @pytest.mark.parametrize("command, missing, producer", [
        ("train-ssad", "annotations.json", "synth"),
        ("train-tag", "annotations.json", "synth"),
        ("infer", "annotations.json", "synth"),
        ("eval-prop", "annotations.json", "synth"),
        ("eval-loc", "annotations.json", "synth"),
        ("infer", "ssad_model.tapm", "train-ssad"),
        ("infer", "tag_model.tapm", "train-tag"),
        ("refine", "proposals_ssad.json", "infer"),
        ("refine", "proposals_tag.json", "infer"),
        ("eval-prop", "proposals_refined.json", "refine"),
        ("eval-prop", "proposals_ssad_final.json", "refine"),
        ("eval-loc", "proposals_refined.json", "refine"),
        ("eval-loc", "classification=<missing path>", "synth"),
        ("train-ssad", "features/<training video>", "synth"),
        ("infer", "features/<validation video>", "synth"),
    ])
    def test_missing_input_names_its_producer(self, tmp_path, caplog, tiny_run,
                                              command, missing, producer):
        # every other input of the stage is present
        out = tmp_path / "out"
        shutil.copytree(tiny_run, out)
        extra = []
        if missing.startswith("classification="):
            path = tmp_path / "absent.json"
            extra = [f"classification={path}"]
        elif missing.startswith("features/"):
            subset = missing.split("<")[1].split()[0]
            database = json.loads((out / "annotations.json").read_text())["database"]
            vid = next(v for v, entry in sorted(database.items()) if entry["subset"] == subset)
            path = out / "features" / f"{vid}.feat"
            path.unlink()
        else:
            path = out / missing
            path.unlink()
        assert main([command, *_tiny_args(out, extra)]) == 5
        assert f"{path} not found; run `{producer}` first" in caplog.text

    def test_data_error_on_corrupt_results(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        (tmp_path / "proposals_refined.json").write_text("{\"results\": {\"v\": [{}]}}")
        (tmp_path / "proposals_ssad_final.json").write_text("{}")
        assert main(["eval-prop", *_tiny_args(tmp_path)]) == 3

    def test_data_error_on_boolean_segment(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        entry = {"segment": [False, True], "score": True}
        (tmp_path / "proposals_refined.json").write_text(json.dumps({"results": {"v": [entry]}}))
        (tmp_path / "proposals_ssad_final.json").write_text(json.dumps({"results": {}}))
        assert main(["eval-prop", *_tiny_args(tmp_path)]) == 3

    def test_divergence_error(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["train-ssad", *_tiny_args(tmp_path, ["ssad.learning_rate=1e18"])])
        assert code == 4

    def test_config_error_tag_checkpoint_mismatch(self, tmp_path):
        for command in ("synth", "train-ssad", "train-tag"):
            assert main([command, *_tiny_args(tmp_path)]) == 0, command
        assert main(["infer", *_tiny_args(tmp_path, ["tag.hidden_width=16"])]) == 2

    def test_config_error_non_utf8_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["synth", "--config", str(config), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name, command", [
        ("annotations.json", "train-ssad"),
        ("proposals_refined.json", "eval-prop"),
        ("classification.json", "eval-loc"),
    ])
    def test_data_error_on_non_utf8_file(self, tmp_path, name, command):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        for results in ("proposals_refined.json", "proposals_ssad_final.json"):
            (tmp_path / results).write_text('{"results": {}}')
        (tmp_path / name).write_bytes(b'{"label": "\xff"}')
        assert main([command, *_tiny_args(tmp_path)]) == 3

    @pytest.mark.parametrize("value", [None, 5, True])
    def test_data_error_on_non_list_annotations(self, tmp_path, value):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        path = tmp_path / "annotations.json"
        raw = json.loads(path.read_text())
        raw["database"]["v00000"]["annotations"] = value
        path.write_text(json.dumps(raw))
        assert main(["train-ssad", *_tiny_args(tmp_path)]) == 3

    def test_data_error_on_directory_feature_file(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        feat = tmp_path / "features" / "v00000.feat"
        feat.unlink()
        feat.mkdir()
        assert main(["train-ssad", *_tiny_args(tmp_path)]) == 3

    @pytest.mark.parametrize("command, video", [
        ("train-ssad", "v00001"),
        ("train-tag", "v00001"),
        ("infer", "v00009"),
    ])
    def test_data_error_on_mixed_feature_dimensions(self, tmp_path, caplog, command, video):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        save_features(FeatureSequence(np.zeros((5, 8))), tmp_path / "features" / f"{video}.feat")
        assert main([command, *_tiny_args(tmp_path)]) == 3
        assert f"video {video} has feature dimension 8" in caplog.text

    @pytest.mark.parametrize("name", ["ssad_model.tapm", "tag_model.tapm"])
    def test_data_error_on_non_finite_checkpoint(self, tmp_path, caplog, name):
        for command in ("synth", "train-ssad", "train-tag"):
            assert main([command, *_tiny_args(tmp_path)]) == 0, command
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        assert main(["infer", *_tiny_args(tmp_path)]) == 3
        assert f"{path}: parameter " in caplog.text and "not finite" in caplog.text

    def test_data_error_on_infinite_duration(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        for results in ("proposals_refined.json", "proposals_ssad_final.json"):
            (tmp_path / results).write_text('{"results": {}}')
        path = tmp_path / "annotations.json"
        raw = json.loads(path.read_text())
        raw["database"]["v00009"]["duration"] = float("inf")
        path.write_text(json.dumps(raw))
        assert main(["eval-prop", *_tiny_args(tmp_path)]) == 3

    @pytest.mark.parametrize("target", ["annotations", "classification"])
    def test_data_error_on_non_string_label(self, tmp_path, caplog, target):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        (tmp_path / "proposals_refined.json").write_text('{"results": {}}')
        path = tmp_path / f"{target}.json"
        raw = json.loads(path.read_text())
        if target == "annotations":
            video = next(v for v in raw["database"].values() if v["annotations"])
            video["annotations"][0]["label"] = 5
        else:
            next(rows for rows in raw.values() if rows)[0]["label"] = 5
        path.write_text(json.dumps(raw))
        assert main(["eval-loc", *_tiny_args(tmp_path)]) == 3
        assert "label must be a string, got 5" in caplog.text

    def test_config_error_ssad_feature_dim_key(self, tmp_path):
        # the features fix the dimension, so no config key sets it
        assert main(["synth", *_tiny_args(tmp_path, ["ssad.feature_dim=4"])]) == 2

    def test_data_error_on_directory_checkpoint(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        (tmp_path / "ssad_model.tapm").mkdir()
        assert main(["infer", *_tiny_args(tmp_path)]) == 3

    @pytest.mark.parametrize("assignment", [
        'ssad.epochs="2"',
        "ssad.batch_size=2.5",
        "tag.epochs=1.5",
        'ssad.learning_rate="x"',
        'tag.scan_cutoff="no"',
        "ssad.top_k=null",
        'refine.iou_threshold="a"',
        "synth.duration_range=[30]",
        "synth.instances_range=[1]",
        "synth.instance_len_frac=[0.1,0.2,0.3]",
        "ssad.epochs=true",
        "tag.scan_cutoff=1",
        "eval.ar_at=[10, 1.5]",
        "eval.ar_at=[[10]]",
        "eval.subset=5",
        "nms.max_per_video={}",
        "synth.signal_strength=NaN",
        "synth.duration_range=[1, Infinity]",
        f"ssad.learning_rate={10**400}",
        pytest.param("ssad.epochs=" + "1" * 5000, id="ssad.epochs=<5000 digits>"),
        "ssad.epochs=-1",
        "ssad.batch_size=0",
        "ssad.learning_rate=0",
        "output_dir=5",
        "output_dir=null",
        "annotations=[1]",
        "features_dir=true",
        "classification={}",
        "eval.an_max=0",
        "eval.ar_at=[0]",
        "eval.ar_at=[101]",
        "eval.at_n=[0]",
        "eval.top_c=0",
        "eval.map_points=[0]",
        "eval.map_points=[1.5]",
        "ssad.input_length=0",
    ])
    def test_config_error_bad_section_value(self, tmp_path, assignment):
        assert main(["synth", *_tiny_args(tmp_path, [assignment])]) == 2

    def test_config_error_on_foreign_checkpoint_header(self, tmp_path):
        # 36 bytes: one conv1d spec with in/out/kernel 0xFFFFFFFF and no payload
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        (tmp_path / "ssad_model.tapm").write_bytes(
            b"TAPM" + struct.pack("<II", 1, 1) + struct.pack("<6I", 1, *[2**32 - 1] * 3, 1, 0))
        assert main(["infer", *_tiny_args(tmp_path)]) == 2

    def test_data_error_on_short_checkpoint_payload(self, tmp_path):
        for command in ("synth", "train-ssad"):
            assert main([command, *_tiny_args(tmp_path)]) == 0, command
        path = tmp_path / "ssad_model.tapm"
        path.write_bytes(path.read_bytes()[:-4])
        assert main(["infer", *_tiny_args(tmp_path)]) == 3


class TestConfigTypes:
    @pytest.mark.parametrize("section", [
        SynthConfig, SsadConfig, TagConfig, RefineConfig, NmsConfig, EvalOptions,
    ])
    def test_every_default_has_a_checkable_type(self, section):
        for f in dataclasses.fields(section):
            values = f.default if isinstance(f.default, tuple) else (f.default,)
            assert values, f"{section.__name__}.{f.name} defaults to an empty tuple"
            for v in values:
                assert type(v) in (bool, int, float, str), f"{section.__name__}.{f.name}"

    def test_no_section_field_is_named_like_a_top_level_key(self):
        top_level = set(config_defaults()) - set(SECTIONS)
        for name, section in SECTIONS.items():
            assert not top_level & {f.name for f in dataclasses.fields(section)}, name

    def test_ints_pass_for_floats(self):
        cfg = load_config(None, [
            "ssad.learning_rate=1",
            "synth.duration_range=[20, 30]",
            "tag.tau_grid=[0.5]",
        ], None, None)
        assert cfg.ssad.learning_rate == 1
        assert cfg.synth.duration_range == (20, 30)
        assert cfg.tag.tau_grid == (0.5,)


class TestConfigPrecedence:
    def _manifest_seed(self, out):
        return json.loads((out / "manifest_synth.json").read_text())["seed"]

    def test_flag_beats_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "synth": {"num_videos": 6}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out), "--seed", "2"]) == 0
        assert self._manifest_seed(out) == 2

    def test_set_beats_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--seed", "2",
                     "--set", "seed=3", "--set", "synth.num_videos=6"]) == 0
        assert self._manifest_seed(out) == 3

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAPKIT_SEED", "4")
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--seed", "2", "--set", "synth.num_videos=6"]) == 0
        assert self._manifest_seed(out) == 2

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError):
            load_config(None, ["seed=true"], None, None)
        with pytest.raises(ConfigError):
            load_config(None, ["seed=1.5"], None, None)
        with pytest.raises(ConfigError):
            load_config(None, ["seed=-3"], None, None)
        with pytest.raises(ConfigError):
            load_config(None, [], -1, None)

    def test_set_parses_json_values(self):
        cfg = load_config(None, [
            "synth.duration_range=[20.0, 30.0]",
            "nms.placement=\"off\"",
            "tag.scan_cutoff=false",
            "eval.subset=validation",  # bare string fallback
        ], None, None)
        assert cfg.synth.duration_range == (20.0, 30.0)
        assert cfg.nms.placement == "off"
        assert cfg.tag.scan_cutoff is False
        assert cfg.eval.subset == "validation"

    def test_later_value_replaces_an_object_given_for_a_value(self):
        # the defaults, not the layers below, say which keys are sections
        assert load_config(None, ['seed={"x": 1}', "seed=2"], None, None).seed == 2
        cfg = load_config(None, ["synth.num_videos={}", "synth.num_videos=6"], None, None)
        assert cfg.synth.num_videos == 6

    def test_set_requires_equals(self):
        with pytest.raises(ConfigError):
            load_config(None, ["seed"], None, None)

    def test_defaults_round_trip(self):
        # every default key is accepted back as explicit config
        cfg = load_config(None, [], None, None)
        snapshot = config_defaults()
        assert cfg.snapshot == snapshot

    def test_each_default_given_by_set_or_file_keeps_the_snapshot(self, tmp_path):
        # --set and the config file overlay the defaults by one rule
        snapshot = config_defaults()
        cfg_path = tmp_path / "cfg.json"
        for dotted, value, layer in _default_leaves():
            pair = f"{dotted}={json.dumps(value)}"
            assert load_config(None, [pair], None, None).snapshot == snapshot, pair
            cfg_path.write_text(json.dumps(layer))
            assert load_config(str(cfg_path), [], None, None).snapshot == snapshot, layer


def _default_leaves():
    """Each leaf of config_defaults(): its dotted key, its value and the
    config file object that gives only that value."""
    for key, value in config_defaults().items():
        if key in SECTIONS:
            for name, leaf in value.items():
                yield f"{key}.{name}", leaf, {key: {name: leaf}}
        else:
            yield key, value, {key: value}


class TestManifest:
    def test_shape_and_checksums(self, tmp_path):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["version"] == __version__
        assert isinstance(manifest["wall_time_s"], float)
        assert manifest["config"]["synth"]["num_videos"] == 10
        assert len(manifest["artifacts"]) == 12  # annotations + 10 feature files + classification
        for rel, digest in manifest["artifacts"].items():
            assert sha256_file(tmp_path / rel) == digest

    def test_wall_time_ignores_a_set_clock(self, tmp_path, monkeypatch):
        # a wall clock stepped back an hour at every reading
        readings = iter(range(10**6))
        monkeypatch.setattr(time, "time", lambda: 1e9 - 3600.0 * next(readings))
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert 0.0 <= manifest["wall_time_s"] < 600.0

    def test_snapshot_replays_identically(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["synth", *_tiny_args(out_a)]) == 0
        manifest_a = json.loads((out_a / "manifest_synth.json").read_text())

        cfg_path = tmp_path / "replay.json"
        snapshot = dict(manifest_a["config"])
        snapshot["output_dir"] = str(tmp_path / "b")
        cfg_path.write_text(json.dumps(snapshot))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        manifest_b = json.loads((tmp_path / "b" / "manifest_synth.json").read_text())
        assert manifest_a["artifacts"] == manifest_b["artifacts"]


class TestPipeline:
    def test_pipeline_equals_stagewise(self, tmp_path):
        out_a = tmp_path / "pipe"
        out_b = tmp_path / "stages"
        assert main(["pipeline", *_tiny_args(out_a)]) == 0
        for command in (stage for stage in STAGES if stage != "pipeline"):
            assert main([command, *_tiny_args(out_b)]) == 0, command

        pipeline_manifest = json.loads((out_a / "manifest_pipeline.json").read_text())
        for rel, digest in pipeline_manifest["artifacts"].items():
            assert (out_b / rel).read_bytes() == (out_a / rel).read_bytes(), rel
            assert sha256_file(out_b / rel) == digest, rel

    def test_refine_under_each_nms_placement(self, tmp_path, placement_run):
        cfg, out, placement = placement_run, placement_run.output_dir, placement_run.nms.placement
        ssad, tag = read_results(out / "proposals_ssad.json"), read_results(out / "proposals_tag.json")
        # run_refine's contract: NMS on the anchor proposals before refine, or
        # on both outputs after it, or not at all
        before = (lambda p: nms(p, cfg.nms)) if placement == "before" else (lambda p: p)
        after = (lambda p: nms(p, cfg.nms)) if placement == "after" else (lambda p: p)
        final = {vid: after(before(p)) for vid, p in ssad.items()}
        refined = {vid: after(refine(before(p), tag.get(vid, ProposalSet()), cfg.refine))
                   for vid, p in ssad.items()}
        assert any(len(nms(p, cfg.nms)) < len(p) for p in ssad.values())
        assert any((p.sources == Source.REFINED).any() for p in refined.values())
        write_results(final, tmp_path / "final.json")
        write_results(refined, tmp_path / "refined.json")
        assert (out / "proposals_ssad_final.json").read_bytes() == (tmp_path / "final.json").read_bytes()
        assert (out / "proposals_refined.json").read_bytes() == (tmp_path / "refined.json").read_bytes()

    def test_tiny_run_matches_golden(self, placement_run):
        manifest = json.loads((placement_run.output_dir / "manifest_pipeline.json").read_text())
        path = golden_path(f"tiny7_{placement_run.nms.placement}")
        verify_golden(manifest["artifacts"], json.loads(path.read_text()), fingerprint(),
                      record_criterion, path.name)

    # with at most one instance per video, some class has no validation gt
    @pytest.mark.filterwarnings("ignore:class .* has no ground truth:RuntimeWarning")
    def test_video_without_instances_gets_no_localization(self, tmp_path):
        # synth writes an empty classification list for a video without
        # instances; eval-loc labels none of its proposals
        out = tmp_path / "pipe"
        args = _tiny_args(out, ["synth.num_videos=20", "synth.instances_range=[0,1]"])
        args[args.index("--seed") + 1] = "3"
        assert main(["pipeline", *args]) == 0
        classification = json.loads((out / "classification.json").read_text())
        localization = json.loads((out / "localization.json").read_text())["results"]
        empty = [vid for vid in localization if classification[vid] == []]
        assert empty and all(localization[vid] == [] for vid in empty)

    def test_pipeline_writes_single_manifest(self, tmp_path):
        out = tmp_path / "pipe"
        assert main(["pipeline", *_tiny_args(out)]) == 0
        manifests = sorted(p.name for p in out.glob("manifest_*.json"))
        assert manifests == ["manifest_pipeline.json"]

    def test_report_shapes(self, tmp_path):
        out = tmp_path / "pipe"
        assert main(["pipeline", *_tiny_args(out)]) == 0

        for name in ("refined", "ssad", "baseline"):
            report = json.loads((out / f"eval_prop_{name}.json").read_text())
            assert set(report) == {"ar_at", "ar_an_area", "curve"}
            assert set(report["ar_at"]) == {"10", "100"}
            assert len(report["curve"]) == 100
            assert 0.0 <= report["ar_an_area"] <= 1.0

        loc = json.loads((out / "eval_loc.json").read_text())
        assert set(loc) == {"map", "average_map", "at_n"}
        assert set(loc["at_n"]) == {"1", "5", "10", "25", "100"}
        assert set(loc["map"]) == {"0.5", "0.75", "0.95"}

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # TINY's data and epochs with the default net width: its stem matmul
        # is large enough for OpenBLAS to split across two threads
        wide = ["synth.feature_dim=16", "ssad.input_length=256", "ssad.hidden_channels=32"]
        assert main(["synth", *_tiny_args(tmp_path / "synth", wide)]) == 0
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            shutil.copytree(tmp_path / "synth", out)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(tapkit.__file__).parents[1])}
            subprocess.run([sys.executable, "-m", "tapkit.cli", "train-ssad",
                            *_tiny_args(out, wide)], env=env, check=True, capture_output=True)
            blobs.append((out / "ssad_model.tapm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_feature_dim_comes_from_features(self, tmp_path):
        assert main(["pipeline", *_tiny_args(tmp_path, ["synth.feature_dim=6"])]) == 0
        # a checkpoint trained on 6-dim features does not fit 4-dim ones
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        assert main(["infer", *_tiny_args(tmp_path)]) == 2


# the artifacts that hold seconds: segments, and durations in the annotations
_SECONDS = {"annotations.json", "proposals_ssad.json", "proposals_tag.json",
            "proposals_refined.json", "proposals_ssad_final.json", "localization.json"}


def _checksums(out, command):
    return json.loads((out / f"manifest_{command}.json").read_text())["artifacts"]


def _times(value, c):
    """A results or annotations JSON value with every segment and duration times c."""
    if isinstance(value, list):
        return [_times(v, c) for v in value]
    if not isinstance(value, dict):
        return value
    return {k: [c * t for t in v] if k == "segment" else c * v if k == "duration"
            else _times(v, c) for k, v in value.items()}


class TestMetamorphicRelations:
    """Whole TINY runs against the base run of the same seed. A stage that
    mixes seconds with snippet indices, or comes to depend on file or dict
    order, breaks these relations even where every unit oracle passes."""

    # powers of two: a float times c rounds exactly as the unscaled value did
    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_time_scale(self, tmp_path, tiny_run, c):
        synth = SynthConfig()  # TINY keeps the default durations
        extra = [f"synth.duration_range={[c * t for t in synth.duration_range]}",
                 f"synth.snippet_length={c * synth.snippet_length}"]
        assert main(["pipeline", *_tiny_args(tmp_path, extra)]) == 0
        base, scaled = _checksums(tiny_run, "pipeline"), _checksums(tmp_path, "pipeline")
        assert scaled.keys() == base.keys()
        for name in base:
            if name in _SECONDS:
                assert scaled[name] != base[name], name
                assert json.loads((tmp_path / name).read_text()) == \
                    _times(json.loads((tiny_run / name).read_text()), c), name
            else:
                assert scaled[name] == base[name], name

    def test_annotation_order(self, tmp_path, tiny_run):
        assert main(["synth", *_tiny_args(tmp_path)]) == 0
        path = tmp_path / "annotations.json"
        raw = json.loads(path.read_text())
        raw["database"] = dict(reversed(raw["database"].items()))
        path.write_text(json.dumps(raw, indent=2))
        base = _checksums(tiny_run, "pipeline")
        for command in (stage for stage in STAGES if stage not in ("synth", "pipeline")):
            assert main([command, *_tiny_args(tmp_path)]) == 0, command
            for name, checksum in _checksums(tmp_path, command).items():
                assert checksum == base[name], name


def test_producers_return_what_the_table_names(tmp_path):
    # a file renamed in its writer but not in _PRODUCERS would otherwise
    # surface only as a wrong exit 5 in a later stage
    cfg = load_config(None, TINY, seed=7, output_dir=str(tmp_path))
    written = {name: STAGES[name](cfg) for name in list(STAGES)[:-1]}
    for name, producer in _PRODUCERS.items():
        assert _input(cfg, name) in written[producer], name


def test_stages_cover_all_commands(monkeypatch):
    assert list(STAGES) == [
        "synth", "train-ssad", "train-tag", "infer", "refine",
        "eval-prop", "eval-loc", "pipeline",
    ]
    ran = []
    for name in list(STAGES)[:-1]:
        monkeypatch.setitem(STAGES, name, lambda cfg, name=name: ran.append(name) or [])
    assert STAGES["pipeline"](None) == []
    assert ran == list(STAGES)[:-1]


def test_readme_lists_the_stages_in_order():
    # README's usage lines, stage table and stage sentence name each command
    # of STAGES in table order; `pipeline` runs them all and has its own line
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stages = [name for name in STAGES if name != "pipeline"]
    assert re.findall(r"^tapkit (\S+)", text, flags=re.M) == ["pipeline", *stages]
    table = text[text.index("| stage "):]
    assert re.findall(r"^\| (\S+)", table[:table.index("\n\n")], flags=re.M) == ["stage", *stages]
    sentence = re.search(r"runs every stage in order: ([^.]+)\.", text)[1]
    assert re.split(r",\s+", sentence) == stages
