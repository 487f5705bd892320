"""Self-tests of the benchmark's own arithmetic, checks and tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, conv_macs, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_times_merge_overlapping_children():
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 2.0, 6.0, 0), Span("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_conv_macs_match_a_hand_count():
    from tapkit.engine import Conv1d

    layer = Conv1d(2, 3, 3, stride=2, pad=1, rng=np.random.default_rng(0), dtype=np.float64)
    x = np.ones((2, 2, 5))
    t_out = layer.forward(x).shape[2]
    hand = 0
    for _n in range(2):
        for _o in range(3):
            for _t in range(t_out):
                for _c in range(2):
                    for _j in range(3):
                        hand += 1
    assert conv_macs(x.shape, layer.w.shape, 2, 1) == hand == 108

    tracer = Tracer()
    tracer.install()
    try:
        layer.forward(x)
        layer.backward(np.ones((2, 3, t_out)))
    finally:
        tracer.uninstall()
    assert tracer.counts["engine.conv1d.forward.macs"] == hand
    assert tracer.counts["engine.conv1d.backward.macs"] == 2 * hand
    assert [s.name for s in tracer.spans()].count("engine.conv1d.forward.other") == 1


def _cli(stage, out, *sets):
    from tapkit.cli import main

    argv = [stage, "--out", str(out), "--seed", "3"]
    for s in sets:
        argv += ["--set", s]
    assert main(argv) == 0


SMALL = ("synth.num_videos=8", "synth.val_fraction=0.5", "ssad.input_length=16",
         "ssad.epochs=1", "tag.epochs=1")


def test_manifest_check_catches_one_flipped_byte(tmp_path):
    _cli("synth", tmp_path, *SMALL)
    manifest = tmp_path / "manifest_synth.json"
    assert checks.check_manifest(manifest) == []
    before = checks.digest(tmp_path)

    target = tmp_path / "annotations.json"
    blob = bytearray(target.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    target.write_bytes(bytes(blob))
    failures = checks.check_manifest(manifest)
    assert len(failures) == 1 and "annotations.json" in failures[0]
    # the digest is over recorded checksums, so it still names the run
    assert checks.digest(tmp_path) == before


def test_tracer_reaches_pipeline_import_sites(tmp_path):
    from tapkit import metrics, pipeline

    for stage in ("synth", "train-ssad", "train-tag", "infer", "refine"):
        _cli(stage, tmp_path, *SMALL)
    original = pipeline.mean_ap
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.mean_ap is metrics.mean_ap is not original
        _cli("eval-loc", tmp_path, *SMALL)
    finally:
        tracer.uninstall()
    assert pipeline.mean_ap is metrics.mean_ap is original
    names = [s.name for s in tracer.spans()]
    # 3 map points + 10 for average_map + 5 eval@n x 10 + 10 CSV rows
    assert names.count("metrics.mean_ap") == 73
    assert names.count("pipeline.run_eval_loc") == 1
    assert names.count("cli.main") == 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(50) == 75
    assert run.tail_percentile(19) is None
