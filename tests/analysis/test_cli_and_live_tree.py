"""The lint CLI and the analyzer's verdict on the live repro tree."""

import io
import json
from pathlib import Path

import repro.analysis
from repro.analysis import run_analysis
from repro.analysis.cli import run
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import LAYER_ALLOWED


class TestLiveTree:
    def test_live_tree_has_no_errors(self):
        """The shipped sources satisfy every trust-boundary rule."""
        report = run_analysis()
        assert report.errors == [], "\n" + render_text(report)

    def test_live_tree_suppressions_are_justified(self):
        report = run_analysis()
        for finding in report.suppressed:
            assert finding.suppress_reason

    def test_module_count_covers_the_package(self):
        report = run_analysis()
        assert report.module_count >= 80

    def test_layer_table_names_existing_code(self):
        """Every layer and every allowed import target is a package or
        module under ``src/repro``: a deleted one leaves no stale entry."""
        root = Path(repro.analysis.__file__).parent.parent
        named = set(LAYER_ALLOWED).union(*LAYER_ALLOWED.values())
        missing = [name for name in sorted(named)
                   if not (root / name / "__init__.py").is_file()
                   and not (root / f"{name}.py").is_file()]
        assert missing == []


class TestCli:
    def test_clean_run_exits_zero(self):
        out = io.StringIO()
        assert run([], stdout=out) == 0
        assert "veil-lint: ok" in out.getvalue()

    def test_json_output_is_machine_readable(self):
        out = io.StringIO()
        assert run(["--format", "json"], stdout=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["errors"] == 0
        assert "layering" in payload["rules"]

    def test_violations_exit_nonzero(self, make_pkg):
        root = make_pkg({
            "kernel/kernel.py": "def f(self):\n    self.vmpl = 2\n"})
        out = io.StringIO()
        assert run(["--root", str(root)], stdout=out) == 1
        assert "veil-lint: FAIL" in out.getvalue()

    def test_rule_subset_selection(self, make_pkg):
        root = make_pkg({
            "kernel/kernel.py": "def f(self):\n    self.vmpl = 2\n"})
        out = io.StringIO()
        # Only the layering rule runs, so the vmpl leak is not seen.
        assert run(["--root", str(root), "--rules", "layering"],
                   stdout=out) == 0

    def test_bad_root_is_a_usage_error(self, tmp_path):
        assert run(["--root", str(tmp_path / "nope")],
                   stdout=io.StringIO()) == 2

    def test_unknown_rule_is_a_usage_error(self):
        assert run(["--rules", "bogus"], stdout=io.StringIO()) == 2

    def test_show_suppressed_prints_justifications(self):
        out = io.StringIO()
        run(["--show-suppressed"], stdout=out)
        assert "suppressed" in out.getvalue()

    def test_render_json_round_trips(self, make_pkg):
        root = make_pkg({
            "kernel/kernel.py": "def f(self):\n    self.vmpl = 2\n"})
        report = run_analysis(root)
        payload = json.loads(render_json(report))
        assert payload["errors"] == len(report.errors) == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "vmpl-literal"
        assert finding["line"] == 2


class TestPublicSurface:
    def test_package_all_resolves(self):
        for name in repro.analysis.__all__:
            assert getattr(repro.analysis, name) is not None
