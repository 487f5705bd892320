"""Stage orchestration: configuration, artifacts, and run manifests.

Every stage reads and writes files under one output directory, so a full
`pipeline` run is byte-identical to running the stages one at a time with the
same seed. Each command ends by writing a manifest with sha256 checksums of
the artifacts it produced.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import ProposalSet, Source, Subset, subset_videos
from .engine import load_weights, save_model
from .errors import ConfigError, DataError, StageDependencyError
from .fusion import NmsConfig, RefineConfig, fuse
from .ingest import (
    SynthConfig,
    generate_synthetic,
    load_annotations,
    load_features,
    read_classification,
    read_results,
    save_annotations,
    save_features,
    write_classification,
    write_localization,
    write_results,
)
from .metrics import (
    TIOU_GRID,
    ar_an,
    attach_labels,
    mean_ap,
    uniform_random_proposals,
)
from .ssad import SsadConfig, SsadModel
from .ssad import infer as ssad_infer
from .ssad import train as ssad_train
from .tag import TagConfig, build_mlp, predict_actionness, tag_proposals, train_actionness
from .util import atomic_open, sha256_file, write_json_atomic

logger = logging.getLogger("tapkit")


@dataclass(frozen=True)
class EvalOptions:
    an_max: int = 100
    ar_at: tuple[int, ...] = (10, 100)
    at_n: tuple[int, ...] = (1, 5, 10, 25, 100)
    top_c: int = 1
    subset: str = "validation"  # a Subset once built
    map_points: tuple[float, ...] = (0.5, 0.75, 0.95)

    def __post_init__(self) -> None:
        if self.an_max < 1:
            raise ConfigError(f"an_max must be >= 1, got {self.an_max}")
        if not self.ar_at or any(not 1 <= n <= self.an_max for n in self.ar_at):
            raise ConfigError(f"ar_at values must lie in 1..{self.an_max}, got {self.ar_at}")
        if not self.at_n or any(n < 1 for n in self.at_n):
            raise ConfigError(f"at_n values must be >= 1, got {self.at_n}")
        if self.top_c < 1:
            raise ConfigError(f"top_c must be >= 1, got {self.top_c}")
        if self.subset not in [s.value for s in Subset]:
            raise ConfigError(f"subset must be one of {[s.value for s in Subset]}, got {self.subset!r}")
        object.__setattr__(self, "subset", Subset(self.subset))
        for t in self.map_points:
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"map_points values must lie in (0, 1], got {t}")


def _section_defaults(dc_cls) -> dict:
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(dc_cls)}


SECTIONS = {"synth": SynthConfig, "ssad": SsadConfig, "tag": TagConfig,
            "refine": RefineConfig, "nms": NmsConfig, "eval": EvalOptions}


def config_defaults() -> dict:
    return {
        "seed": 0,
        "output_dir": "tapkit_out",
        "annotations": None,
        "features_dir": None,
        "classification": None,
        **{name: _section_defaults(dc_cls) for name, dc_cls in SECTIONS.items()},
    }


def _deep_merge(base: dict, override: dict, path: str = "") -> None:
    """Overlay one layer on the config tree: a section merges key by key, a value is replaced."""
    for key, value in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if where in SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            _deep_merge(base[key], value, where + ".")
        else:
            base[key] = value


def _parse_set(assignment: str) -> dict:
    """A --set pair `a.b=v` as the object {"a": {"b": v}}; v parses as a JSON
    literal, else it is a string."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to convert
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def _type_ok(value, default) -> bool:
    """Whether a JSON value has the type of a field default. Ints pass for
    floats, bools pass only for bools, lists pass for tuples element-wise."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_type_ok(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _build_section(dc_cls, section: dict, what: str):
    kwargs = dict(section)
    for f in dataclasses.fields(dc_cls):
        value = kwargs[f.name]
        if not _type_ok(value, f.default):
            raise ConfigError(f"{what}.{f.name} must have the JSON type of its default "
                              f"{json.dumps(f.default)}, got {json.dumps(value)}")
        # the numbers of a float or float list must lie in float range; NaN does not
        kind = f.default[0] if isinstance(f.default, tuple) else f.default
        numbers = value if isinstance(value, list) else [value]
        if isinstance(kind, float) and not all(abs(v) <= sys.float_info.max for v in numbers):
            raise ConfigError(f"{what}.{f.name} must be finite, got {json.dumps(value)}")
        if isinstance(value, list):
            kwargs[f.name] = tuple(value)
    try:
        return dc_cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{what}.{exc}") from exc


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    output_dir: Path
    annotations: Path
    features_dir: Path
    classification: Path
    synth: SynthConfig
    ssad: SsadConfig
    tag: TagConfig
    refine: RefineConfig
    nms: NmsConfig
    eval: EvalOptions
    snapshot: dict = field(repr=False)


def load_config(
    config_path: str | None,
    set_overrides: list[str],
    seed: int | None,
    output_dir: str | None,
) -> PipelineConfig:
    """Defaults overlaid in turn by the config file, --out/--seed and each --set."""
    layers = []
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                layers.append(json.load(f))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {config_path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(layers[0], dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
    flags = {"output_dir": output_dir, "seed": seed}
    layers.append({key: value for key, value in flags.items() if value is not None})
    layers += [_parse_set(assignment) for assignment in set_overrides]
    merged = config_defaults()
    for layer in layers:
        _deep_merge(merged, layer)
    seed = merged["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(merged["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {json.dumps(merged['output_dir'])}")
    for key in ("annotations", "features_dir", "classification"):
        if merged[key] is not None and not isinstance(merged[key], str):
            raise ConfigError(f"{key} must be a string or null, got {json.dumps(merged[key])}")
    out_dir = Path(merged["output_dir"])
    return PipelineConfig(
        seed=seed,
        output_dir=out_dir,
        annotations=Path(merged["annotations"]) if merged["annotations"] else out_dir / "annotations.json",
        features_dir=Path(merged["features_dir"]) if merged["features_dir"] else out_dir / "features",
        classification=Path(merged["classification"]) if merged["classification"] else out_dir / "classification.json",
        **{name: _build_section(dc_cls, merged[name], name) for name, dc_cls in SECTIONS.items()},
        snapshot=merged,
    )


# --------------------------------------------------------------------------
# stage plumbing


def _require(path: Path, producer: str) -> None:
    if not path.exists():
        raise StageDependencyError(f"{path} not found; run `{producer}` first")


# The stage that writes each input a later stage reads. Feature files are
# named by the annotations, so _load_videos checks them with _require.
_PRODUCERS = {
    "annotations": "synth",
    "classification": "synth",
    "ssad_model.tapm": "train-ssad",
    "tag_model.tapm": "train-tag",
    "proposals_ssad.json": "infer",
    "proposals_tag.json": "infer",
    "proposals_refined.json": "refine",
    "proposals_ssad_final.json": "refine",
}


def _input(cfg: PipelineConfig, name: str) -> Path:
    """The path of an existing stage input: a file name under output_dir
    (it has a dot) or a config path key. Exit 5 names its producer."""
    path = cfg.output_dir / name if "." in name else getattr(cfg, name)
    _require(path, _PRODUCERS[name])
    return path


def _feature_path(cfg: PipelineConfig, video_id: str) -> Path:
    return cfg.features_dir / f"{video_id}.feat"


def _load_videos(cfg: PipelineConfig, subset: Subset) -> tuple[list, dict, int]:
    """The records of a subset, their features and the features' common dimension D."""
    records = subset_videos(load_annotations(_input(cfg, "annotations")), subset)
    if not records:
        raise DataError(f"no {subset.value} videos in annotations")
    features = {}
    for rec in records:
        path = _feature_path(cfg, rec.video_id)
        _require(path, "synth")
        seq = features[rec.video_id] = load_features(path)
        first = features[records[0].video_id]
        if seq.feature_dim != first.feature_dim:
            raise DataError(f"video {rec.video_id} has feature dimension {seq.feature_dim}, "
                            f"video {records[0].video_id} has {first.feature_dim}")
    return records, features, first.feature_dim


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row of Python numbers, each written as its repr."""
    with atomic_open(path) as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(map(repr, row)) + "\n")


def _train(cfg: PipelineConfig, name: str, build, train) -> list[Path]:
    """Training stage of network `name`, its config section and file prefix."""
    records, features, feature_dim = _load_videos(cfg, Subset.TRAINING)
    section = getattr(cfg, name)
    model = build(feature_dim, section, cfg.seed)
    trace = train(model, records, features, section, cfg.seed)
    model_path = cfg.output_dir / f"{name}_model.tapm"
    save_model(model, model_path)
    loss_path = cfg.output_dir / f"{name}_loss.csv"
    _write_csv(loss_path, "epoch,loss", enumerate(trace, start=1))
    if trace:
        logger.info("train-%s: %d epochs, loss %.6f -> %.6f", name, len(trace), trace[0], trace[-1])
    else:
        logger.info("train-%s: 0 epochs, model saved untrained", name)
    return [model_path, loss_path]


# --------------------------------------------------------------------------
# stages


@contextmanager
def _writing(cfg: PipelineConfig, key: str):
    """Exit 2 naming config path key `key` if its path is of the wrong kind."""
    try:
        yield
    except (FileExistsError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{key} {getattr(cfg, key)} cannot be written: {exc}") from exc


def run_synth(cfg: PipelineConfig) -> list[Path]:
    """Generate the synthetic dataset (annotations, features, classification)."""
    videos, features, classification = generate_synthetic(cfg.synth, cfg.seed)
    with _writing(cfg, "annotations"):
        save_annotations(videos, cfg.annotations)
    paths = [cfg.annotations]
    with _writing(cfg, "features_dir"):
        for vid in sorted(features):
            path = _feature_path(cfg, vid)
            save_features(features[vid], path)
            paths.append(path)
    with _writing(cfg, "classification"):
        write_classification(classification, cfg.classification)
    paths.append(cfg.classification)
    n_train = len(subset_videos(videos, Subset.TRAINING))
    n_val = len(subset_videos(videos, Subset.VALIDATION))
    logger.info("synth: %d videos (%d training, %d validation), %d classes",
                len(videos), n_train, n_val, cfg.synth.num_classes)
    return paths


# The trainers are looked up when the stage runs, so wrappers see the call.
def run_train_ssad(cfg: PipelineConfig) -> list[Path]:
    """Train the anchor-overlap proposal network."""
    return _train(cfg, "ssad", SsadModel, ssad_train)


def run_train_tag(cfg: PipelineConfig) -> list[Path]:
    """Train the actionness MLP."""
    return _train(cfg, "tag", build_mlp, train_actionness)


def run_infer(cfg: PipelineConfig) -> list[Path]:
    """Score the evaluation subset: anchor proposals and grouped proposals."""
    records, features, feature_dim = _load_videos(cfg, cfg.eval.subset)
    model = load_weights(SsadModel(feature_dim, cfg.ssad, cfg.seed), _input(cfg, "ssad_model.tapm"))
    mlp = load_weights(build_mlp(feature_dim, cfg.tag, cfg.seed), _input(cfg, "tag_model.tapm"))

    ssad_sets = ssad_infer(model, records, features)
    tag_sets = {rec.video_id: tag_proposals(predict_actionness(mlp, features[rec.video_id]),
                                            cfg.tag, rec)
                for rec in records}
    ssad_path = cfg.output_dir / "proposals_ssad.json"
    tag_path = cfg.output_dir / "proposals_tag.json"
    write_results(ssad_sets, ssad_path)
    write_results(tag_sets, tag_path)
    logger.info("infer: %d videos, %d anchor proposals/video, %d grouped proposals total",
                len(records), model.num_anchors, sum(len(s) for s in tag_sets.values()))
    return [ssad_path, tag_path]


def run_refine(cfg: PipelineConfig) -> list[Path]:
    """Refine boundaries against grouped proposals and apply NMS."""
    ssad_path = _input(cfg, "proposals_ssad.json")
    tag_path = _input(cfg, "proposals_tag.json")
    ssad_sets = read_results(ssad_path)
    tag_sets = read_results(tag_path)

    refined, ssad_final = {}, {}
    for vid in sorted(ssad_sets):
        refined[vid], ssad_final[vid] = fuse(ssad_sets[vid], tag_sets.get(vid, ProposalSet()),
                                             cfg.refine, cfg.nms)

    refined_path = cfg.output_dir / "proposals_refined.json"
    final_path = cfg.output_dir / "proposals_ssad_final.json"
    write_results(refined, refined_path)
    write_results(ssad_final, final_path)
    n_replaced = sum(int(np.count_nonzero(pset.sources == Source.REFINED))
                     for pset in refined.values())
    logger.info("refine: %d videos, %d boundaries replaced, nms placement %r",
                len(refined), n_replaced, cfg.nms.placement)
    return [refined_path, final_path]


def run_eval_prop(cfg: PipelineConfig) -> list[Path]:
    """Proposal metrics: AR@AN and the AR-AN curve/area."""
    records = subset_videos(load_annotations(_input(cfg, "annotations")), cfg.eval.subset)
    refined_path = _input(cfg, "proposals_refined.json")
    final_path = _input(cfg, "proposals_ssad_final.json")

    sources = (
        ("refined", read_results(refined_path)),
        ("ssad", read_results(final_path)),
        ("baseline", uniform_random_proposals(records, cfg.eval.an_max, cfg.seed)),
    )
    paths = []
    for name, props in sources:
        curve = ar_an(props, records, cfg.eval.an_max)
        report = {
            "ar_at": {str(n): curve.ar_at(n) for n in cfg.eval.ar_at},
            "ar_an_area": curve.area,
            "curve": list(curve.ar),
        }
        report_path = cfg.output_dir / f"eval_prop_{name}.json"
        write_json_atomic(report_path, report)
        csv_path = cfg.output_dir / f"eval_prop_{name}_curve.csv"
        _write_csv(csv_path, "an,ar", enumerate(curve.ar, start=1))
        paths += [report_path, csv_path]
        logger.info("eval-prop %s: ar_an_area=%.4f %s", name, curve.area,
                    " ".join(f"ar@{n}={curve.ar_at(n):.4f}" for n in cfg.eval.ar_at))
    return paths


def run_eval_loc(cfg: PipelineConfig) -> list[Path]:
    """Localization metrics: mAP over the tIoU grid."""
    videos = load_annotations(_input(cfg, "annotations"))
    refined_path = _input(cfg, "proposals_refined.json")
    classification_path = _input(cfg, "classification")
    proposals = read_results(refined_path)
    classification = read_classification(classification_path)

    localization = attach_labels(proposals, classification, cfg.eval.top_c)
    loc_path = cfg.output_dir / "localization.json"
    write_localization(localization, loc_path)

    maps = mean_ap(localization, videos, TIOU_GRID + cfg.eval.map_points, cfg.eval.at_n,
                   cfg.eval.subset)
    report = {
        "map": {str(t): maps[None][t] for t in cfg.eval.map_points},
        "average_map": float(np.mean([maps[None][t] for t in TIOU_GRID])),
        "at_n": {str(n): float(np.mean([maps[n][t] for t in TIOU_GRID])) for n in cfg.eval.at_n},
    }
    report_path = cfg.output_dir / "eval_loc.json"
    write_json_atomic(report_path, report)
    csv_path = cfg.output_dir / "eval_loc.csv"
    _write_csv(csv_path, "tiou,map", ((t, maps[None][t]) for t in TIOU_GRID))
    logger.info("eval-loc: average_map=%.4f %s", report["average_map"],
                " ".join(f"map@{k}={v:.4f}" for k, v in report["map"].items()))
    return [loc_path, report_path, csv_path]


def run_pipeline(cfg: PipelineConfig) -> list[Path]:
    """Run all other stages, in table order, with one seed."""
    paths = []
    for name, stage in STAGES.items():
        if name != "pipeline":
            paths += stage(cfg)
    return paths


# Subcommands in pipeline order. Keep the values plain module-level
# functions: perfbench's tracer wraps them in place.
STAGES = {
    "synth": run_synth,
    "train-ssad": run_train_ssad,
    "train-tag": run_train_tag,
    "infer": run_infer,
    "refine": run_refine,
    "eval-prop": run_eval_prop,
    "eval-loc": run_eval_loc,
    "pipeline": run_pipeline,
}


def write_manifest(cfg: PipelineConfig, command: str, artifacts: list[Path], started: float) -> Path:
    """Checksums of the artifacts plus the command's wall time since `started`,
    a time.perf_counter() reading, so a clock set mid-run cannot skew it."""
    checksums = {str(p.relative_to(cfg.output_dir) if p.is_relative_to(cfg.output_dir) else p):
                 sha256_file(p) for p in artifacts}
    payload = {
        "command": command,
        "config": cfg.snapshot,
        "seed": cfg.seed,
        "artifacts": checksums,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "version": __version__,
    }
    manifest_path = cfg.output_dir / f"manifest_{command}.json"
    write_json_atomic(manifest_path, payload)
    return manifest_path


def run_command(cfg: PipelineConfig, command: str) -> Path:
    started = time.perf_counter()
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {cfg.output_dir} cannot be used as a directory: {exc}") from exc
    with _writing(cfg, "output_dir"):
        artifacts = STAGES[command](cfg)
        manifest = write_manifest(cfg, command, artifacts, started)
    logger.info("%s: wrote %d artifacts, manifest %s", command, len(artifacts), manifest)
    return manifest
