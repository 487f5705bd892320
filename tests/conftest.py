import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from golden import fixture42_config
from tapkit.core import DatasetIndex, ProposalSet, Source, Subset, VideoRecord, tiou_matrix
from tapkit.metrics import ar_an, mean_ap
from tapkit.pipeline import PipelineConfig, run_command
from tapkit.tag import _regions

# Env overrides would leak into every config the tests build.
os.environ.pop("TAPKIT_SEED", None)


# One-call forms of the production kernels, for tests that check one value,
# and shorthands for proposal sets and ground truth written as rows.


def tiou(a, b):
    """tIoU of two (start, end) intervals: a 1x1 tiou_matrix."""
    return float(tiou_matrix([a[0]], [a[1]], [b[0]], [b[1]])[0, 0])


def gt_records(gt):
    """Validation records of class "x", by video id, from gt: vid -> [(start, end)]."""
    return [VideoRecord(vid, 1e6, Subset.VALIDATION, ("x",) * len(spans),
                        [s for s, _ in spans], [e for _, e in spans])
            for vid, spans in sorted(gt.items())]


def recall(proposals, gt, an, threshold):
    """Recall at one AN and one threshold: a single-point ar_an curve."""
    return ar_an(proposals, gt_records(gt), an_max=an, grid=(threshold,)).ar_at(an)


def average_precision(preds, gt, threshold):
    """AP of one class at one threshold: mean_ap over an index whose only
    class is "x". preds: [(vid, start, end, score)], gt: vid -> [(start, end)]."""
    vids = {*gt, *(p[0] for p in preds)}
    videos = {rec.video_id: rec for rec in gt_records({vid: gt.get(vid, ()) for vid in vids})}
    loc = {}
    for vid, start, end, score in preds:
        loc.setdefault(vid, []).append(("x", start, end, score))
    return mean_ap(loc, DatasetIndex(videos), [threshold])[None][threshold]


def pset(rows, source=Source.SSAD):
    """A proposal set from (start, end, score) rows."""
    columns = np.asarray(rows, dtype=np.float64).reshape(-1, 3).T
    return ProposalSet(*columns, source)


def group(values, tau, gamma, min_frag=1, scan_cutoff=True):
    """Sorted regions of one (tau, gamma) grid point, as tag_proposals groups them."""
    starts, ends = _regions(np.asarray(values, dtype=np.float64), (tau,), (gamma,), min_frag,
                            scan_cutoff)
    return list(zip(starts.tolist(), ends.tolist()))


@dataclass
class FixtureRun:
    cfg: PipelineConfig
    wall_time_s: float


@pytest.fixture(scope="session")
def fixture42(tmp_path_factory) -> FixtureRun:
    """One full end-to-end run shared by the slow checks; its artifacts'
    checksums are pinned in golden_fixture42.json (see golden.py)."""
    cfg = fixture42_config(tmp_path_factory.mktemp("fx42"))
    started = time.time()
    run_command(cfg, "pipeline")
    return FixtureRun(cfg, time.time() - started)


# One human-readable line per acceptance criterion, echoed after the test
# summary so the verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool | None, detail: str) -> None:
    """ok None: the check did not run here (its test skips, saying why)."""
    verdict = "NOT CHECKED" if ok is None else "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number}: {verdict} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line("  " + line)
