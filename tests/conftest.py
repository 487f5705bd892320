import os
import time
from dataclasses import dataclass

import pytest

from tapkit.pipeline import PipelineConfig, load_config, run_command

# Env overrides would leak into every config the tests build.
os.environ.pop("TAPKIT_SEED", None)


@dataclass
class FixtureRun:
    cfg: PipelineConfig
    wall_time_s: float


@pytest.fixture(scope="session")
def fixture42(tmp_path_factory) -> FixtureRun:
    """One full end-to-end run shared by the slow checks.

    Seed 42, 200 training / 50 validation videos, D=16, input length 64.
    """
    out = tmp_path_factory.mktemp("fx42")
    cfg = load_config(None, ["ssad.input_length=64"], seed=42, output_dir=str(out))
    started = time.time()
    run_command(cfg, "pipeline")
    return FixtureRun(cfg, time.time() - started)


# One human-readable line per acceptance criterion, echoed after the test
# summary so the verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    )


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line("  " + line)
