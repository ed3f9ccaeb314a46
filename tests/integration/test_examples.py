"""Smoke tests: every example script must run cleanly end to end.

Examples are documentation that executes; a broken example is a broken
promise.  Each test runs one script in a subprocess and checks its exit
code and a signature line of its output.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: script name -> substring its stdout must contain.
EXPECTED_OUTPUT = {
    "quickstart.py": "stability trajectory:",
    "retention_campaign.py": "lift",
    "monitoring_dashboard.py": "churners caught",
    "custom_data.py": "abstracted",
    "parameter_tuning.py": "paper selected",
    "streaming_alerts.py": "true churners caught",
    "loss_characterization.py": "department rollup",
    "unlabeled_pipeline.py": "label audit",
    "early_warning.py": "call list",
    "big_data_workflow.py": "parity with the offline sweep: True",
    "calibrated_probabilities.py": "reliability after calibration",
}


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_OUTPUT), (
        "examples/ and the smoke-test roster diverged; update EXPECTED_OUTPUT"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script: str):
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert EXPECTED_OUTPUT[script] in result.stdout
    assert not result.stderr.strip(), result.stderr[-2000:]
