"""Annotation/feature/results file I/O, fixed-length resizing and the
synthetic dataset generator that stands in for CNN feature extraction.

File formats:
  annotations  JSON  {"version": ..., "database": {vid: {"duration", "subset",
                      "annotations": [{"label", "segment": [s, e]}]}}}
  features     binary, magic "TAPF", u32 version=1, u32 T, u32 D, then T*D
               little-endian float32 row-major
  results      JSON  {"version", "results": {vid: [{"segment", "score"(,"label")}]},
                      "external_data": {}}
  classification JSON {vid: [{"label", "score"}, ...]} sorted by score desc
"""

from __future__ import annotations

import json
import math
import operator
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .core import ProposalSet, Subset, VideoRecord
from .errors import ConfigError, DataError
from .util import KEY_SYNTH, U32_MAX, atomic_open, rng_for, write_json_atomic

FEATURE_MAGIC = b"TAPF"
FEATURE_VERSION = 1


@dataclass(frozen=True)
class FeatureSequence:
    """T x D matrix of snippet-level feature vectors for one video."""

    data: np.ndarray  # float32, shape (T, D), row per snippet

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(
                f"feature sequence must be T x D with T, D >= 1, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise DataError("feature sequence has non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def num_snippets(self) -> int:
        return self.data.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic desk-scale dataset.

    Background snippets are N(0, sigma^2 I); every snippet whose center falls
    inside a ground-truth instance gets +mu added on the video's class
    coordinate (the first num_classes feature coordinates are reserved as
    class indicators). One class per video; instances never overlap.
    """

    num_videos: int = 250
    duration_range: tuple[float, float] = (40.0, 80.0)
    snippet_length: float = 1.0
    feature_dim: int = 16
    num_classes: int = 5
    instances_range: tuple[int, int] = (1, 3)
    instance_len_frac: tuple[float, float] = (0.05, 0.25)
    signal_strength: float = 2.0
    noise_sigma: float = 1.0
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        for name in ("duration_range", "instances_range", "instance_len_frac"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must be a [low, high] pair, got {getattr(self, name)}")
        if self.num_videos < 1:
            raise ConfigError(f"num_videos must be >= 1, got {self.num_videos}")
        for name, value in (("num_videos", self.num_videos),
                            ("instances_range[1]", self.instances_range[1])):
            if value >= 2**63:  # counts stay within numpy's int64
                raise ConfigError(f"{name} must be below 2**63, got {value}")
        if not (0.0 < self.duration_range[0] <= self.duration_range[1]):
            raise ConfigError(f"duration_range must be 0 < low <= high, got {self.duration_range}")
        if self.snippet_length <= 0.0:
            raise ConfigError(f"snippet_length must be > 0, got {self.snippet_length}")
        if not self.duration_range[1] / self.snippet_length <= U32_MAX:  # false for inf, NaN
            raise ConfigError(f"duration_range[1] / snippet_length must be <= {U32_MAX} snippets, "
                              f"got {self.duration_range[1] / self.snippet_length}")
        if self.feature_dim > U32_MAX:
            raise ConfigError(f"feature_dim must be <= {U32_MAX}, got {self.feature_dim}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.feature_dim < self.num_classes:
            raise ConfigError(
                f"feature_dim must be >= num_classes (class indicator directions), "
                f"got D={self.feature_dim} < {self.num_classes}"
            )
        if not (0 <= self.instances_range[0] <= self.instances_range[1]):
            raise ConfigError(f"instances_range must be 0 <= low <= high, got {self.instances_range}")
        if not (0.0 < self.instance_len_frac[0] <= self.instance_len_frac[1] < 1.0):
            raise ConfigError(f"instance_len_frac must be 0 < low <= high < 1, got {self.instance_len_frac}")
        for name in ("signal_strength", "noise_sigma"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


# --------------------------------------------------------------------------
# annotations


def _is_number(x) -> bool:
    """A JSON number a float can hold; bool is an int subclass, so true/false are excluded."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def _is_pair(seg) -> bool:
    """A [start, end] segment: a list or tuple of two JSON numbers."""
    return (isinstance(seg, (list, tuple)) and len(seg) == 2
            and _is_number(seg[0]) and _is_number(seg[1]))


def _read_json(path: str | Path, what: str):
    """Parse a UTF-8 JSON file; unreadable, undecodable or invalid is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot parse {what} file {path}: {exc}") from exc


def load_annotations(path: str | Path) -> dict[str, VideoRecord]:
    """Parse an ActivityNet-style annotation file into validated records keyed by video id."""
    raw = _read_json(path, "annotation")
    if not isinstance(raw, dict) or not isinstance(raw.get("database"), dict):
        raise DataError(f"{path}: missing or malformed 'database' map")

    videos: dict[str, VideoRecord] = {}
    for vid, entry in raw["database"].items():
        if not isinstance(entry, dict):
            raise DataError(f"{path}: database.{vid} is not an object")
        duration = entry.get("duration")
        if not _is_number(duration):
            raise DataError(f"{path}: database.{vid}.duration must be a number")
        subset = entry.get("subset")
        try:
            subset = Subset(subset)
        except ValueError:
            raise DataError(
                f"{path}: database.{vid}.subset must be training/validation/testing, got {subset!r}"
            ) from None
        annotations = entry.get("annotations", [])
        if not isinstance(annotations, list):
            raise DataError(f"{path}: database.{vid}.annotations must be a list")
        labels, starts, ends = [], [], []
        for i, ann in enumerate(annotations):
            where = f"database.{vid}.annotations[{i}]"
            if not isinstance(ann, dict) or "label" not in ann or "segment" not in ann:
                raise DataError(f"{path}: {where} needs 'label' and 'segment'")
            seg = ann["segment"]
            if not _is_pair(seg):
                raise DataError(f"{path}: {where}.segment must be a [start, end] pair")
            label = ann["label"]
            if not isinstance(label, str):
                raise DataError(f"{path}: {where}.label must be a string, got {label!r}")
            labels.append(label)
            starts.append(seg[0])
            ends.append(seg[1])
        try:
            videos[vid] = VideoRecord(vid, duration, subset, labels, starts, ends)
        except DataError as exc:
            raise DataError(f"{path}: database.{vid}: {exc}") from exc
    return videos


def save_annotations(videos: dict[str, VideoRecord], path: str | Path) -> None:
    database = {}
    for vid, rec in sorted(videos.items()):
        database[vid] = {
            "duration": rec.duration,
            "subset": rec.subset.value,
            "annotations": [
                {"label": label, "segment": [start, end]}
                for label, start, end in zip(rec.labels, rec.starts.tolist(), rec.ends.tolist())
            ],
        }
    write_json_atomic(path, {"version": "1.0", "database": database})


# --------------------------------------------------------------------------
# resize


def resize_linear(seq: FeatureSequence, length: int) -> np.ndarray:
    """Resize to a fixed number of rows by endpoint-aligned linear
    interpolation, as a float32 (length, D) array.

    Output row j samples the input at position j*(T-1)/(L-1); the first and
    last rows are preserved exactly, and L == T is the identity.
    """
    t = seq.num_snippets
    if t == 1:
        return np.repeat(seq.data, length, axis=0)
    if length == 1:
        pos = np.array([(t - 1) / 2.0])
    else:
        pos = np.arange(length, dtype=np.float64) * (t - 1) / (length - 1)
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, t - 2)
    frac = pos - lo
    rows = seq.data.astype(np.float64)
    out = rows[lo] * (1.0 - frac)[:, None] + rows[lo + 1] * frac[:, None]
    return out.astype(np.float32)


# --------------------------------------------------------------------------
# feature files


def save_features(seq: FeatureSequence, path: str | Path) -> None:
    t, d = seq.data.shape
    payload = seq.data.astype("<f4").tobytes(order="C")
    with atomic_open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<III", FEATURE_VERSION, t, d))
        f.write(payload)


def load_features(path: str | Path) -> FeatureSequence:
    """Read a TAPF feature file."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic, not a feature file")
    version, t, d = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature file version {version}")
    expected = 16 + 4 * t * d
    if len(blob) != expected:
        raise DataError(
            f"{path}: corrupt payload, header says T={t} D={d} "
            f"({expected} bytes) but file has {len(blob)}"
        )
    arr = np.frombuffer(blob, dtype="<f4", offset=16).reshape(t, d)
    try:
        return FeatureSequence(arr.copy())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# results files


# One template per entry kind: the bytes json.dump(indent=2, sort_keys=True)
# gives each entry at its depth in the envelope. Values are Python floats
# (from .tolist()), so %r is float.__repr__, the repr json itself uses.
_ENTRY = ('\n      {\n        "score": %r,\n        "segment": [\n          %r,\n'
          '          %r\n        ]\n      }')
_LOC_ENTRY = ('\n      {\n        "label": %s,\n        "score": %r,\n        "segment": [\n'
              '          %r,\n          %r\n        ]\n      }')
_json_str = json.encoder.encode_basestring_ascii


def _write_results_file(blocks: Iterable[tuple[str, str]], path: str | Path) -> None:
    """Stream the results envelope one video at a time, byte for byte as
    json.dump of {"version": "1.0", "results": ..., "external_data": {}} with
    indent=2 and sorted keys, then a newline. blocks yields (video id, its
    entries joined by ",") in sorted id order."""
    with atomic_open(path) as f:
        f.write('{\n  "external_data": {},\n  "results": {')
        sep, close = "\n    ", "}"
        for vid, body in blocks:
            f.write(f"{sep}{_json_str(vid)}: " + (f"[{body}\n    ]" if body else "[]"))
            sep, close = ",\n    ", "\n  }"
        f.write(close + ',\n  "version": "1.0"\n}\n')


def write_results(proposal_sets: dict[str, ProposalSet], path: str | Path) -> None:
    """Write proposal results JSON (labelled files come from write_localization)."""
    _write_results_file((
        (vid, ",".join(map(_ENTRY.__mod__, zip(pset.scores.tolist(), pset.starts.tolist(),
                                                pset.ends.tolist()))))
        for vid, pset in sorted(proposal_sets.items())
    ), path)


_SEGMENT, _SCORE = operator.itemgetter("segment"), operator.itemgetter("score")


def _numbers(column) -> bool:
    """Every value is a JSON number a float can hold; one type test per value
    when all are floats, as they are in the files tapkit writes."""
    return set(map(type, column)) <= {float} or all(map(_is_number, column))


def _raise_entry_error(path, vid: str, entries: list) -> NoReturn:
    """Raise the error of the first malformed entry of a video."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: results.{vid}[{i}] is not an object")
        if not _is_pair(entry.get("segment")):
            raise DataError(
                f"{path}: results.{vid}[{i}].segment must be a [start, end] pair")
        if not _is_number(entry.get("score")):
            raise DataError(f"{path}: results.{vid}[{i}].score must be a number")


def read_results(path: str | Path) -> dict[str, ProposalSet]:
    """Read a proposal results file (extra per-entry keys are tolerated).

    A video's entries are checked a column at a time; only a video that fails
    is scanned entry by entry, to name its first bad entry.
    """
    raw = _read_json(path, "results")
    if not isinstance(raw, dict) or not isinstance(raw.get("results"), dict):
        raise DataError(f"{path}: missing 'results' map")
    out = {}
    results = raw["results"]
    for vid in list(results):
        entries = results.pop(vid)  # pop, so the JSON of each finished video is freed
        if not isinstance(entries, list):
            raise DataError(f"{path}: results.{vid} must be a list")
        try:  # only a dict can be indexed by a string key
            segs = list(map(_SEGMENT, entries))
            scores = list(map(_SCORE, entries))
        except (KeyError, TypeError):
            _raise_entry_error(path, vid, entries)
        if not (set(map(type, segs)) <= {list, tuple} and set(map(len, segs)) <= {2}):
            _raise_entry_error(path, vid, entries)
        starts, ends = zip(*segs) if segs else ((), ())
        if not (_numbers(starts) and _numbers(ends) and _numbers(scores)):
            _raise_entry_error(path, vid, entries)
        try:
            out[vid] = ProposalSet(starts, ends, scores)
        except DataError as exc:
            raise DataError(f"{path}: results.{vid}: {exc}") from exc
    return out


def write_localization(
    localization: dict[str, list[tuple[str, float, float, float]]], path: str | Path
) -> None:
    """Write labelled results JSON; start, end and score must be Python floats."""
    _write_results_file((
        (vid, ",".join([_LOC_ENTRY % (_json_str(label), score, start, end)
                        for label, start, end, score in localization[vid]]))
        for vid in sorted(localization)
    ), path)


# --------------------------------------------------------------------------
# classification results


def read_classification(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Video-level classification results, confidence-sorted per video."""
    raw = _read_json(path, "classification")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: expected a video_id -> entries map")
    out = {}
    for vid, entries in raw.items():
        if not isinstance(entries, list):
            raise DataError(f"{path}: {vid} must map to a list")
        rows = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "label" not in entry or "score" not in entry:
                raise DataError(f"{path}: {vid}[{i}] needs 'label' and 'score'")
            score = entry["score"]
            if not _is_number(score) or not 0.0 <= score <= 1.0:
                raise DataError(f"{path}: {vid}[{i}].score must be a number in [0, 1]")
            label = entry["label"]
            if not isinstance(label, str):
                raise DataError(f"{path}: {vid}[{i}].label must be a string, got {label!r}")
            rows.append((label, float(score)))
        rows.sort(key=lambda r: -r[1])
        out[vid] = rows
    return out


def write_classification(results: dict[str, list[tuple[str, float]]], path: str | Path) -> None:
    write_json_atomic(path, {
        vid: [{"label": label, "score": score} for label, score in rows]
        for vid, rows in sorted(results.items())
    })


# --------------------------------------------------------------------------
# synthetic data


def snippets_inside(num_snippets: int, duration: float, starts, ends) -> np.ndarray:
    """Boolean mask of the snippets whose center, (t + 0.5) / T of the
    duration, lies in some [start, end) span."""
    centers = ((np.arange(num_snippets) + 0.5) / num_snippets * duration)[:, None]
    return ((centers >= np.asarray(starts)) & (centers < np.asarray(ends))).any(axis=1)


def _place_instances(
    rng: np.random.Generator, duration: float, count: int, frac_range: tuple[float, float]
) -> list[tuple[float, float]]:
    """count non-overlapping (start, end) spans inside [0, duration], sorted by start."""
    placed: list[tuple[float, float]] = []
    for _ in range(count):
        for _attempt in range(100):
            length = duration * rng.uniform(frac_range[0], frac_range[1])
            start = rng.uniform(0.0, duration - length)
            end = start + length
            if all(min(end, e) <= max(start, s) for s, e in placed):
                placed.append((start, end))
                break
        else:
            raise DataError(
                f"could not place {count} non-overlapping instances in a "
                f"{duration:.1f}s video after 100 attempts"
            )
    placed.sort(key=lambda span: span[0])
    return placed


def generate_synthetic(
    cfg: SynthConfig,
    seed: int,
) -> tuple[dict[str, VideoRecord], dict[str, FeatureSequence], dict[str, list[tuple[str, float]]]]:
    """Build a seeded synthetic dataset.

    Returns the annotation records keyed by video id, per-video feature
    sequences, and oracle video-level classification results (each video's
    class, confidence 1.0). Deterministic given the seed.
    """
    rng = rng_for(seed, KEY_SYNTH)
    num_val = int(round(cfg.num_videos * cfg.val_fraction))
    num_train = cfg.num_videos - num_val

    videos: dict[str, VideoRecord] = {}
    features: dict[str, FeatureSequence] = {}
    classification: dict[str, list[tuple[str, float]]] = {}
    labels = tuple(f"class_{c}" for c in range(cfg.num_classes))

    for v in range(cfg.num_videos):
        vid = f"v{v:05d}"
        subset = Subset.TRAINING if v < num_train else Subset.VALIDATION
        duration = float(rng.uniform(*cfg.duration_range))
        t = int(math.ceil(duration / cfg.snippet_length))
        cls = int(rng.integers(0, cfg.num_classes))
        count = int(rng.integers(cfg.instances_range[0], cfg.instances_range[1] + 1))
        instances = _place_instances(rng, duration, count, cfg.instance_len_frac)

        starts, ends = [start for start, _ in instances], [end for _, end in instances]
        data = rng.normal(0.0, cfg.noise_sigma, size=(t, cfg.feature_dim))
        data[snippets_inside(t, duration, starts, ends), cls] += cfg.signal_strength

        videos[vid] = VideoRecord(vid, duration, subset, (labels[cls],) * len(instances),
                                  starts, ends)
        features[vid] = FeatureSequence(data)
        if instances:
            classification[vid] = [(labels[cls], 1.0)]
        else:
            classification[vid] = []

    return videos, features, classification
