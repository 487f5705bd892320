"""Golden sha256 checksums of pinned end-to-end runs.

Each pinned run has one file, golden_<run>.json: the shared run
conftest.fixture42 (golden_fixture42.json) and the TINY runs at seed 7 under
each NMS placement (golden_tiny7_<placement>.json). A file holds the
`artifacts` map of the run's manifest_pipeline.json, split by what the bytes
depend on:

  rng   synth's outputs and the uniform baseline's report: numpy's RNG and
        float64 code only, so they match on any machine with the same numpy;
  gemm  both checkpoints and everything computed from them: float32 and
        float64 matrix products, whose last bits may change with the CPU or
        the BLAS build.

Beside them it stores the fingerprint of the machine that wrote them. The rng
group is compared everywhere. The gemm group is compared where the
fingerprint matches; elsewhere the test reports which fields differ and skips.

After a planned byte change, regenerate every file and review the diff:

    PYTHONPATH=src python tests/golden.py
"""

import functools
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest


def golden_path(run: str) -> Path:
    return Path(__file__).with_name(f"golden_{run}.json")


GOLDEN_PATH = golden_path("fixture42")
# what synth writes, and the baseline report; every other artifact is "gemm"
_RNG_ONLY = ("annotations.json", "classification.json", "features/",
             "eval_prop_baseline.json", "eval_prop_baseline_curve.csv")


def fixture42_config(output_dir):
    """Seed 42, 200 training / 50 validation videos, D=16, input length 64."""
    from tapkit.pipeline import load_config

    return load_config(None, ["ssad.input_length=64"], seed=42, output_dir=str(output_dir))


# a pipeline small enough to run many times; tests run it at seed 7
TINY = [
    "synth.num_videos=10",
    "synth.feature_dim=4",
    "synth.num_classes=2",
    "ssad.input_length=16",
    "ssad.hidden_channels=8",
    "ssad.epochs=2",
    "tag.hidden_width=8",
    "tag.epochs=2",
]
PLACEMENTS = ("after", "before", "off")


def tiny7_config(output_dir, placement):
    """TINY at seed 7, NMS applied `placement` refinement, with thresholds low
    enough that NMS and refine both change the TINY sets (at the defaults,
    "before" writes the bytes of "off")."""
    from tapkit.pipeline import load_config

    return load_config(None, [*TINY, f'nms.placement="{placement}"', "nms.iou_threshold=0.3",
                              "refine.iou_threshold=0.5"], seed=7, output_dir=str(output_dir))


# every pinned run and the config of that run in a given output directory
PINNED = {"fixture42": fixture42_config,
          **{f"tiny7_{placement}": functools.partial(tiny7_config, placement=placement)
             for placement in PLACEMENTS}}


def fingerprint() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        # OpenBLAS picks its kernels by the CPU features it finds at run time
        "cpu_features": config["SIMD Extensions"]["found"],
    }


def verify_golden(artifacts: dict, golden: dict, here: dict, record,
                  name: str = GOLDEN_PATH.name) -> None:
    """Compare a run's artifact checksums with the golden ones.

    Fails on a difference in the rng group, or in the gemm group when the
    fingerprint `here` equals the stored one. When it does not, the gemm group
    is not compared: record(7, None, ...) names each field that differs and
    the test is skipped, so the summary shows it. record is
    conftest.record_criterion's signature; name is the golden file's.
    """
    assert sorted(artifacts) == sorted({**golden["rng"], **golden["gemm"]}), \
        "the pipeline's artifact list differs from the golden file's"
    stored = golden["fingerprint"]
    changed = [f"{key} {stored.get(key)!r} -> {value!r}" for key, value in here.items()
               if stored.get(key) != value]
    compared = {**golden["rng"], **({} if changed else golden["gemm"])}
    differ = sorted(rel for rel, digest in compared.items() if artifacts[rel] != digest)
    detail = (f"golden {name}: {len(compared)} of {len(artifacts)} checksums "
              f"compared, {len(differ)} differ {differ[:3]}")
    record(7, not differ, detail)
    assert not differ, detail
    if changed:
        reason = (f"{len(golden['gemm'])} gemm checksums not compared, the fingerprint "
                  f"differs: {'; '.join(changed)}")
        record(7, None, reason)
        pytest.skip(reason)


def regenerate() -> None:
    from tapkit.pipeline import run_command

    for run, config in PINNED.items():
        with tempfile.TemporaryDirectory() as tmp:
            cfg = config(tmp)
            run_command(cfg, "pipeline")
            artifacts = json.loads((cfg.output_dir / "manifest_pipeline.json").read_text())["artifacts"]
        rng = {rel: digest for rel, digest in artifacts.items() if rel.startswith(_RNG_ONLY)}
        gemm = {rel: digest for rel, digest in artifacts.items() if rel not in rng}
        path = golden_path(run)
        path.write_text(json.dumps({"fingerprint": fingerprint(), "rng": rng, "gemm": gemm},
                                   indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}: {len(rng)} rng and {len(gemm)} gemm checksums")


if __name__ == "__main__":
    regenerate()
