"""Make ``perf/`` modules and the ``repro`` sources importable."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
for path in (PERF, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a whole run takes a few seconds."""
    import harness
    import workloads
    monkeypatch.setattr(harness, "MIN_ROUNDS", 2)
    monkeypatch.setattr(workloads, "FIG4_ITERATIONS", 3)
    monkeypatch.setattr(workloads, "SWEEP_PASSES", 2)
    monkeypatch.setattr(workloads, "SWEEP_EXPECTED",
                        workloads.SWEEP_ITERS *
                        (2 + workloads.SWEEP_BYTES // workloads.SWEEP_STRIDE))
    monkeypatch.setattr(workloads, "CS1_REPETITIONS", 5)
    monkeypatch.setattr(workloads, "SURGE_REPLICAS", 3)
    monkeypatch.setattr(workloads, "SURGE_REQUESTS", 120)
    monkeypatch.setattr(workloads, "CHAOS_REQUESTS", 60)
    return harness
