"""Output checks and the determinism digest, read from a stage output directory.

Each check returns a list of failure messages (empty when it passes). The
benchmark counts every check as one attempted operation, so one failed
check is one failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifests(out_dir: Path) -> list[Path]:
    return sorted(out_dir.glob("manifest_*.json"))


def check_manifest(manifest: Path) -> list[str]:
    """Every artifact the manifest lists re-hashes to its recorded sha256."""
    out_dir = manifest.parent
    failures = []
    for key, recorded in sorted(_load(manifest)["artifacts"].items()):
        path = out_dir / key
        if not path.is_file():
            failures.append(f"{manifest.name}: {key} is missing")
        elif _sha256(path) != recorded:
            failures.append(f"{manifest.name}: {key} does not match its sha256")
    return failures


def digest(out_dir: Path) -> str:
    """sha256 over the sorted (manifest, artifact, checksum) triples of a directory.

    Wall times and config paths in the manifests are left out, so two runs of
    one seed and config agree exactly unless an artifact differs.
    """
    lines = sorted(
        f"{m.name}\t{key}\t{sha}\n"
        for m in manifests(out_dir)
        for key, sha in _load(m)["artifacts"].items()
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def validation_durations(out_dir: Path) -> dict[str, float]:
    database = _load(out_dir / "annotations.json")["database"]
    return {vid: e["duration"] for vid, e in database.items() if e["subset"] == "validation"}


def training_count(out_dir: Path) -> int:
    database = _load(out_dir / "annotations.json")["database"]
    return sum(e["subset"] == "training" for e in database.values())


def check_refined(out_dir: Path, max_per_video: int) -> list[list[str]]:
    """One result per validation video: its refined set exists, is capped,
    has scores in [0, 1] and intervals inside [0, duration]."""
    results = _load(out_dir / "proposals_refined.json")["results"]
    per_video = []
    for vid, duration in sorted(validation_durations(out_dir).items()):
        entries = results.get(vid)
        if entries is None:
            per_video.append([f"{vid}: no refined proposal set"])
            continue
        failures = []
        if len(entries) > max_per_video:
            failures.append(f"{vid}: {len(entries)} proposals > cap {max_per_video}")
        for e in entries:
            start, end = e["segment"]
            if not 0.0 <= e["score"] <= 1.0:
                failures.append(f"{vid}: score {e['score']} outside [0, 1]")
            if not 0.0 <= start < end <= duration:
                failures.append(f"{vid}: segment [{start}, {end}] outside [0, {duration}]")
        per_video.append(failures)
    return per_video


def ar_an_area(out_dir: Path, source: str = "refined") -> float:
    return float(_load(out_dir / f"eval_prop_{source}.json")["ar_an_area"])


def average_map(out_dir: Path) -> float:
    return float(_load(out_dir / "eval_loc.json")["average_map"])


def final_loss(out_dir: Path) -> float:
    with open(out_dir / "ssad_loss.csv", "r", encoding="utf-8") as f:
        last = f.read().strip().splitlines()[-1]
    return float(last.split(",")[1])


def check_refinement_gain(out_dir: Path) -> list[str]:
    """Acceptance criterion 6 (b): refinement does not lower the AR-AN area."""
    refined, ssad = ar_an_area(out_dir, "refined"), ar_an_area(out_dir, "ssad")
    return [] if refined >= ssad else [f"refined area {refined:.4f} < ssad area {ssad:.4f}"]


CRITERION_6_MARGIN = 0.10


def check_baseline_margin(out_dir: Path, margin: float = CRITERION_6_MARGIN) -> list[str]:
    """Acceptance criterion 6 (a): the anchor net beats the random baseline by margin.

    With margin 0 the anchor net must still beat the baseline strictly.
    """
    ssad, baseline = ar_an_area(out_dir, "ssad"), ar_an_area(out_dir, "baseline")
    if (ssad >= baseline + margin) if margin else (ssad > baseline):
        return []
    return [f"ssad area {ssad:.4f} does not beat baseline area {baseline:.4f} + {margin}"]
