"""A seeded chaos run prints the same report in every fresh process.

Same-process replay is pinned elsewhere; this catches state drawn once
per interpreter (the platform and module-signing RSA keys), which only
shows when the command runs in separate processes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

COMMAND = ["chaos", "--seed", "3", "--schedule", "mayhem",
           "--requests", "36"]


def run_in_fresh_process(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONHASHSEED=str(hash_seed))
    result = subprocess.run([sys.executable, "-m", "repro", *COMMAND],
                            capture_output=True, text=True, env=env,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_mayhem_report_replays_across_processes():
    reports = {run_in_fresh_process(hash_seed) for hash_seed in (0, 1, 2)}
    assert len(reports) == 1
    (report,) = reports
    assert "completed 36/36 requests" in report
