#!/usr/bin/env python3
"""Rewrite EXPERIMENTS.md's generated blocks from a fresh evaluation.

Usage (from the repo root)::

    python tools/update_experiments.py

Runs the evaluation that ``python -m repro all`` prints and puts each
section's text into its ``<!-- repro all: NAME -->`` block.  The text
around the blocks (paper values, cost-model constants, deviation
notes) is kept as written.  ``tests/bench/test_experiments_doc.py``
fails while a block differs from what this writes.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.evaluation import (  # noqa: E402
    render_experiments_doc, run_evaluation)


def main() -> int:
    path = REPO_ROOT / "EXPERIMENTS.md"
    doc = path.read_text(encoding="utf-8")
    fresh = render_experiments_doc(doc, run_evaluation())
    if fresh == doc:
        print(f"{path.name}: up to date")
    else:
        path.write_text(fresh, encoding="utf-8")
        print(f"{path.name}: rewrote the generated blocks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
