"""EXPERIMENTS.md's measured numbers are the evaluation's own output."""

from pathlib import Path

import pytest

from repro.bench.evaluation import Section, render_experiments_doc

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_blocks_match_the_evaluation(evaluation):
    """Each block holds its section as ``repro all`` prints it; after a
    model change, ``python tools/update_experiments.py`` rewrites them."""
    doc = DOC.read_text(encoding="utf-8")
    assert render_experiments_doc(doc, list(evaluation.values())) == doc


SECTIONS = [Section("alpha", "one", {}), Section("beta", "two\nlines", {})]


def block(name: str, body: str) -> str:
    return f"<!-- repro all: {name} -->\n{body}\n<!-- end -->"


class TestRender:
    def test_fills_each_block_and_keeps_the_prose(self):
        doc = ("# paper: 7135\n" + block("beta", "stale") + "\nnote\n" +
               block("alpha", "```text\nold\n```") + "\n")
        assert render_experiments_doc(doc, SECTIONS) == (
            "# paper: 7135\n" + block("beta", "```text\ntwo\nlines\n```") +
            "\nnote\n" + block("alpha", "```text\none\n```") + "\n")

    @pytest.mark.parametrize("names, message", [
        (["alpha"], "no block for 'beta'"),
        (["alpha", "beta", "gamma"], "block 'gamma' is unknown or repeated"),
        (["alpha", "alpha", "beta"], "block 'alpha' is unknown or repeated"),
    ], ids=["missing", "unknown", "repeated"])
    def test_refused(self, names, message):
        doc = "\n".join(block(name, "") for name in names)
        with pytest.raises(ValueError, match=message):
            render_experiments_doc(doc, SECTIONS)
