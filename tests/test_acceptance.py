"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a PASS/FAIL line that the
terminal summary echoes after the run (see conftest.record_criterion).
"""

import json
import re
import time

import numpy as np
import pytest

from conftest import average_precision, group, pset, recall, record_criterion, tiou
from golden import GOLDEN_PATH, fingerprint, fixture42_config, verify_golden
from oracles import (
    brute_ap,
    brute_ar_an,
    brute_average_recall,
    brute_group,
    brute_mean_ap,
    brute_recall,
    grad_check,
    kink_free,
    mc_tiou,
    oracle_tiou,
)
from tapkit.core import Source, Subset, VideoRecord, subset_videos
from tapkit.engine import Conv1d, Dense, ReLU, Sequential, Sigmoid, mse_loss
from tapkit.fusion import RefineConfig, refine
from tapkit.ingest import load_annotations, read_results
from tapkit.metrics import TIOU_GRID, ar_an, mean_ap
from tapkit.pipeline import run_command
from tapkit.ssad import SsadConfig, SsadModel, build_anchor_pyramid


def _random_conv_stack(rng):
    depth = int(rng.integers(1, 4))
    channels = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
    layers = []
    for d in range(depth):
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        layers.append(Conv1d(channels[d], channels[d + 1], k, stride=stride,
                             pad=k // 2, rng=rng, dtype=np.float64))
        if d < depth - 1:
            layers.append(ReLU())
    if rng.integers(0, 2):
        layers.append(Sigmoid())
    length = int(rng.choice([4, 8]))
    x = rng.standard_normal((int(rng.integers(1, 3)), channels[0], length))
    return Sequential(layers), x


def _random_dense_stack(rng):
    widths = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5)))]
    layers = []
    for a, b in zip(widths, widths[1:]):
        layers.append(Dense(a, b, rng=rng, dtype=np.float64))
        layers.append(ReLU())
    layers[-1] = Sigmoid() if rng.integers(0, 2) else ReLU()
    x = rng.standard_normal((int(rng.integers(1, 5)), widths[0]))
    return Sequential(layers), x


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        maker = _random_conv_stack if i % 2 == 0 else _random_dense_stack
        model, x = kink_free(rng, maker)
        target = rng.uniform(0.0, 1.0, size=model.forward(x).shape)
        err = grad_check(model, x, lambda y: mse_loss(y, target))
        worst = max(worst, err)
    elapsed = time.time() - started
    ok = worst < 1e-3 and elapsed < 30.0
    record_criterion(1, ok, f"20 stacks, max rel err {worst:.2e} (< 1e-3), {elapsed:.1f}s (< 30s)")
    assert ok


def _random_metric_instance(rng):
    vids = [f"v{k}" for k in range(int(rng.integers(1, 4)))]
    labels = ["jump", "swim"]
    props = {}
    gt = {}
    records = {}
    loc = {}
    total_gt = 0
    for vid in vids:
        rows = [
            (s := float(rng.uniform(0, 40)), s + float(rng.uniform(1, 20)),
             float(rng.integers(0, 11)) / 10.0)
            for _ in range(int(rng.integers(0, 7)))
        ]
        props[vid] = pset(rows)
        loc[vid] = [(labels[int(rng.integers(0, 2))], s, e, score) for s, e, score in rows]
        spans = []
        for _ in range(int(rng.integers(0, 3))):
            s = float(rng.uniform(0, 40))
            spans.append((labels[int(rng.integers(0, 2))], s, s + float(rng.uniform(1, 20))))
        total_gt += len(spans)
        gt[vid] = spans
    if total_gt == 0:
        gt[vids[0]] = [("jump", 0.0, 5.0)]
    for vid in vids:
        records[vid] = VideoRecord(vid, 100.0, Subset.VALIDATION, *zip(*gt[vid]))
    return props, gt, loc, records


def test_criterion_2_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(7)
    tol = 1e-9
    worst = 0.0
    for _ in range(500):
        props, gt, loc, videos = _random_metric_instance(rng)
        plain_props = {
            vid: [(p.start, p.end, p.score) for p in ps]
            for vid, ps in props.items()
        }
        plain_gt = {vid: [(s, e) for _l, s, e in rows] for vid, rows in gt.items()}
        an = int(rng.integers(1, 7))
        threshold = float(rng.choice(TIOU_GRID))

        diffs = [abs(recall(props, plain_gt, an, threshold)
                     - brute_recall(plain_props, plain_gt, an, threshold))]
        curve = ar_an(props, subset_videos(videos, Subset.VALIDATION), an_max=an)
        diffs.append(abs(curve.ar_at(an) - brute_average_recall(plain_props, plain_gt, an)))
        want_ar, want_area = brute_ar_an(plain_props, plain_gt, an)
        diffs += [abs(a - b) for a, b in zip(curve.ar, want_ar)]
        diffs.append(abs(curve.area - want_area))

        preds = [(vid, p.start, p.end, p.score) for vid, ps in props.items() for p in ps]
        diffs.append(abs(average_precision(preds, plain_gt, threshold)
                         - brute_ap(preds, plain_gt, threshold)))

        maps = mean_ap(loc, videos, [threshold], (), Subset.VALIDATION)
        diffs.append(abs(maps[None][threshold] - brute_mean_ap(loc, gt, threshold)))
        worst = max(worst, max(diffs))
    elapsed = time.time() - started
    ok = worst <= tol and elapsed < 60.0
    record_criterion(2, ok, f"500 instances, max |diff| {worst:.1e} (<= 1e-9), {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_3_grouping_oracle():
    started = time.time()
    rng = np.random.default_rng(31)
    exact = True
    monotone = True
    for _ in range(500):
        values = rng.choice([0.0, 0.6, 1.0], size=int(rng.integers(1, 13)))
        tau = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        gammas = sorted(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=2, replace=False))
        got_lo = group(values, tau, gammas[0], scan_cutoff=False)
        got_hi = group(values, tau, gammas[1], scan_cutoff=False)
        exact = exact and got_lo == brute_group(values, tau, gammas[0])
        exact = exact and got_hi == brute_group(values, tau, gammas[1])
        monotone = monotone and set(got_hi) <= set(got_lo)
    elapsed = time.time() - started
    ok = exact and monotone and elapsed < 60.0
    record_criterion(
        3, ok,
        f"500 sequences, oracle match {exact}, gamma-monotone {monotone}, {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_4_tiou_monte_carlo():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a_start = float(rng.uniform(0, 10))
        b_start = float(rng.uniform(0, 10))
        a = (a_start, a_start + float(rng.uniform(0.5, 10)))
        b = (b_start, b_start + float(rng.uniform(0.5, 10)))
        analytic = tiou(a, b)
        assert analytic == oracle_tiou(a, b)
        estimate = mc_tiou(a, b, 10**6, rng)
        worst = max(worst, abs(analytic - estimate))
    ok = worst <= 2e-3
    record_criterion(4, ok, f"100 pairs x 1e6 samples, max |analytic - MC| {worst:.2e} (<= 2e-3)")
    assert ok


def test_criterion_5_refinement_contract():
    rng = np.random.default_rng(5)
    cfg = RefineConfig()
    preserved = True
    for _ in range(1000):
        n_s = int(rng.integers(1, 10))
        n_t = int(rng.integers(0, 8))
        rows_s = []
        for _ in range(n_s):
            s = float(rng.uniform(0, 30))
            rows_s.append((s, s + float(rng.uniform(0.5, 20)), float(rng.uniform(0, 1))))
        rows_t = []
        for _ in range(n_t):
            s = float(rng.uniform(0, 30))
            rows_t.append((s, s + float(rng.uniform(0.5, 20)), float(rng.uniform(0, 1))))
        p_ssad = pset(rows_s)
        out = refine(p_ssad, pset(rows_t, Source.TAG), cfg)
        if len(out) != len(p_ssad):
            preserved = False
        if sorted(p.score for p in out) != sorted(p.score for p in p_ssad):
            preserved = False

    # exact-threshold fixtures: tiou == 0.75 must never replace
    strict = True
    for a, b in (((0.0, 4.0), (1.0, 4.0)), ((0.0, 8.0), (2.0, 8.0)),
                 ((0.0, 16.0), (4.0, 16.0)), ((10.0, 14.0), (11.0, 14.0))):
        assert tiou(a, b) == 0.75
        out = refine(pset([(*a, 0.5)]), pset([(*b, 0.5)], Source.TAG), cfg)
        [p] = out
        if (p.start, p.end) != a or p.source is not Source.SSAD:
            strict = False
    ok = preserved and strict
    record_criterion(
        5, ok, f"1000 pairs count/score-multiset preserved {preserved}, "
               f"exact-0.75 never replaces {strict}")
    assert ok


def test_criterion_6_end_to_end_ordering(fixture42):
    cfg = fixture42.cfg
    out = cfg.output_dir
    reports = {
        name: json.loads((out / f"eval_prop_{name}.json").read_text())
        for name in ("refined", "ssad", "baseline")
    }
    records = subset_videos(load_annotations(out / "annotations.json"), Subset.VALIDATION)
    an = cfg.eval.an_max
    r95 = {
        name: ar_an(read_results(out / path), records, an, (0.95,)).ar_at(an)
        for name, path in (("refined", "proposals_refined.json"),
                           ("ssad", "proposals_ssad_final.json"))
    }
    at_n = json.loads((out / "eval_loc.json").read_text())["at_n"]
    ns = (1, 5, 10, 25, 100)
    steps = [at_n[str(b)] - at_n[str(a)] for a, b in zip(ns, ns[1:])]

    gain = reports["ssad"]["ar_an_area"] - reports["baseline"]["ar_an_area"]
    ok_a = gain >= 0.10
    ok_b = (reports["refined"]["ar_an_area"] >= reports["ssad"]["ar_an_area"]
            and r95["refined"] > r95["ssad"])
    ok_c = all(step >= -0.005 for step in steps)
    ok_time = fixture42.wall_time_s < 600.0
    ok = ok_a and ok_b and ok_c and ok_time
    record_criterion(
        6, ok,
        f"(a) area gain over baseline {gain:.3f} (>= 0.10): {ok_a}; "
        f"(b) refined area {reports['refined']['ar_an_area']:.3f} >= "
        f"{reports['ssad']['ar_an_area']:.3f}, recall@0.95 {r95['ssad']:.4f} -> "
        f"{r95['refined']:.4f}: {ok_b}; "
        f"(c) at_n non-decreasing within 0.005: {ok_c}; "
        f"runtime {fixture42.wall_time_s:.0f}s (< 600s): {ok_time}")
    assert ok


def test_criterion_7_determinism(fixture42, tmp_path):
    first = fixture42.cfg.output_dir
    cfg = fixture42_config(tmp_path / "again")
    run_command(cfg, "pipeline")

    manifest_a = json.loads((first / "manifest_pipeline.json").read_text())
    manifest_b = json.loads((cfg.output_dir / "manifest_pipeline.json").read_text())
    same_checksums = manifest_a["artifacts"] == manifest_b["artifacts"]

    same_bytes = all(
        (first / rel).read_bytes() == (cfg.output_dir / rel).read_bytes()
        for rel in manifest_a["artifacts"]
    )
    ok = same_checksums and same_bytes
    record_criterion(
        7, ok,
        f"{len(manifest_a['artifacts'])} artifacts, checksums equal {same_checksums}, "
        f"bytes equal {same_bytes}")
    assert ok


def test_criterion_7_golden_checksums(fixture42):
    manifest = json.loads((fixture42.cfg.output_dir / "manifest_pipeline.json").read_text())
    verify_golden(manifest["artifacts"], json.loads(GOLDEN_PATH.read_text()), fingerprint(),
                  record_criterion)


def test_golden_gemm_group_is_reported_when_the_fingerprint_differs():
    golden = json.loads(GOLDEN_PATH.read_text())
    elsewhere = {**golden["fingerprint"], "blas": "other-blas 1.0"}
    rng_file, gemm_file = next(iter(golden["rng"])), next(iter(golden["gemm"]))
    artifacts = {**golden["rng"], **golden["gemm"], gemm_file: "0" * 64}
    lines = []

    def record(*line):
        lines.append(line)

    # another BLAS: the moved gemm checksum is not compared, and the skip says why
    skipped = r"gemm checksums not compared, the fingerprint differs: blas '.+' -> 'other-blas"
    with pytest.raises(pytest.skip.Exception, match=skipped):
        verify_golden(artifacts, golden, elsewhere, record)
    assert lines[-1][:2] == (7, None) and re.search(skipped, lines[-1][2])
    # the same fingerprint: it is compared and fails
    with pytest.raises(AssertionError, match=re.escape(f"1 differ ['{gemm_file}']")):
        verify_golden(artifacts, golden, golden["fingerprint"], record)
    # an rng checksum is compared on any machine
    with pytest.raises(AssertionError, match=re.escape(f"1 differ ['{rng_file}']")):
        verify_golden({**golden["rng"], **golden["gemm"], rng_file: "0" * 64}, golden, elsewhere,
                      record)


def test_criterion_8_anchor_and_grid_shapes():
    cfg = SsadConfig()
    pyramid = build_anchor_pyramid(cfg)
    model = SsadModel(16, cfg, 0)
    x = np.random.default_rng(0).standard_normal((1, 16, cfg.input_length))
    scores = model.forward(x.astype(np.float32))
    grid = TIOU_GRID
    ok = (len(pyramid) == 381 and scores.shape == (1, 381)
          and grid == (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95))
    record_criterion(
        8, ok,
        f"{len(pyramid)} anchors, {scores.shape[1]} scores, grid {grid[0]:.2f}..{grid[-1]:.2f}")
    assert ok
