"""Golden sha256 checksums of the shared end-to-end run (conftest.fixture42).

golden_fixture42.json holds the `artifacts` map of that run's
manifest_pipeline.json, split by what the bytes depend on:

  rng   synth's outputs and the uniform baseline's report: numpy's RNG and
        float64 code only, so they match on any machine with the same numpy;
  gemm  both checkpoints and everything computed from them, and
        gradcheck.json: float32 and float64 matrix products, whose last bits
        may change with the CPU or the BLAS build.

Beside them it stores the fingerprint of the machine that wrote them. The rng
group is compared everywhere. The gemm group is compared where the
fingerprint matches; elsewhere the test reports which fields differ and skips.

After a planned byte change, regenerate the file and review its diff:

    PYTHONPATH=src python tests/golden.py
"""

import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_fixture42.json")
# what synth writes, and the baseline report; every other artifact is "gemm"
_RNG_ONLY = ("annotations.json", "classification.json", "features/",
             "eval_prop_baseline.json", "eval_prop_baseline_curve.csv")


def fixture42_config(output_dir):
    """Seed 42, 200 training / 50 validation videos, D=16, input length 64."""
    from tapkit.pipeline import load_config

    return load_config(None, ["ssad.input_length=64"], seed=42, output_dir=str(output_dir))


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


def verify_golden(artifacts: dict, golden: dict, here: dict, record) -> None:
    """Compare a run's artifact checksums with the golden ones.

    Fails on a difference in the rng group, or in the gemm group when the
    fingerprint `here` equals the stored one. When it does not, the gemm group
    is not compared: record(7, None, ...) names each field that differs and
    the test is skipped, so the summary shows it. record is
    conftest.record_criterion's signature.
    """
    assert sorted(artifacts) == sorted({**golden["rng"], **golden["gemm"]}), \
        "the pipeline's artifact list differs from the golden file's"
    stored = golden["fingerprint"]
    changed = [f"{key} {stored.get(key)!r} -> {value!r}" for key, value in here.items()
               if stored.get(key) != value]
    compared = {**golden["rng"], **({} if changed else golden["gemm"])}
    differ = sorted(rel for rel, digest in compared.items() if artifacts[rel] != digest)
    detail = (f"golden {GOLDEN_PATH.name}: {len(compared)} of {len(artifacts)} checksums "
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

    with tempfile.TemporaryDirectory() as tmp:
        cfg = fixture42_config(tmp)
        run_command(cfg, "pipeline")
        artifacts = json.loads((cfg.output_dir / "manifest_pipeline.json").read_text())["artifacts"]
    rng = {rel: digest for rel, digest in artifacts.items() if rel.startswith(_RNG_ONLY)}
    gemm = {rel: digest for rel, digest in artifacts.items() if rel not in rng}
    GOLDEN_PATH.write_text(json.dumps({"fingerprint": fingerprint(), "rng": rng, "gemm": gemm},
                                      indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(rng)} rng and {len(gemm)} gemm checksums")


if __name__ == "__main__":
    regenerate()
