"""veil-flow CLI, baseline machinery, SARIF output, and live-tree flow."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis import (Baseline, FLOW_RULES, Analyzer,
                            apply_baseline, baseline_from_report,
                            render_sarif, run_analysis)
from repro.analysis.baseline import BaselineEntry
from repro.analysis.cli import run, run_flow

from .conftest import findings_for

REPO_ROOT = Path(__file__).resolve().parents[2]

LEAKY = {"cluster/handshake.py": """
    def leak(dh, peer, net, dst):
        secret = dh.shared_key(peer)
        net.send("self", dst, secret)
"""}


def flow_run(files, make_pkg, rules=None):
    return Analyzer(make_pkg(files),
                    rules=list(rules or FLOW_RULES)).run()


@pytest.fixture(scope="module")
def live_flow_report():
    """One whole-program flow analysis of the live tree, before any
    baseline is applied; the three live-tree checks share it."""
    return run_analysis(rules=list(FLOW_RULES))


def _canonical(baseline: Baseline) -> list:
    """A baseline's entries in the order tools/update_flow_baseline.py
    compares them."""
    return sorted((entry.as_dict() for entry in baseline.entries),
                  key=lambda d: (d["rule"], d["path"], d["message"]))


class TestLiveTreeFlow:
    """The live tree under the shipped baseline.  CI also runs the
    ``repro flow`` CLI and ``tools/update_flow_baseline.py --check``."""

    def test_live_tree_flow_is_clean_under_baseline(self,
                                                    live_flow_report):
        """No unsuppressed finding under FLOW_BASELINE.json (the
        condition for ``repro flow`` to exit 0)."""
        baseline = Baseline.load(REPO_ROOT / "FLOW_BASELINE.json")
        report = apply_baseline(live_flow_report, baseline)
        assert report.exit_code == 0, report.errors

    def test_every_live_suppression_is_justified(self, live_flow_report):
        baseline = Baseline.load(REPO_ROOT / "FLOW_BASELINE.json")
        report = apply_baseline(live_flow_report, baseline)
        assert report.suppressed, "baseline should be exercised"
        for finding in report.suppressed:
            reason = finding.suppress_reason or ""
            assert reason and "TODO" not in reason, finding

    def test_checked_in_baseline_is_current(self, live_flow_report):
        """The baseline regenerated from the live report equals the
        checked-in file (what ``update_flow_baseline.py --check``
        asserts)."""
        previous = Baseline.load(REPO_ROOT / "FLOW_BASELINE.json")
        fresh = baseline_from_report(live_flow_report, previous)
        assert _canonical(fresh) == _canonical(previous)


class TestBaselineMechanics:
    def test_matching_entry_suppresses_with_justification(
            self, make_pkg):
        report = flow_run(LEAKY, make_pkg)
        (finding,) = findings_for(report, "secret-flow")
        baseline = Baseline(entries=[BaselineEntry(
            rule="secret-flow",
            path="cluster/handshake.py",
            message=finding.message,
            justification="planted for the test corpus")])
        rebased = apply_baseline(report, baseline)
        assert rebased.errors == []
        (suppressed,) = rebased.suppressed
        assert "planted for the test corpus" in \
            suppressed.suppress_reason

    def test_todo_justification_does_not_suppress(self, make_pkg):
        report = flow_run(LEAKY, make_pkg)
        (finding,) = findings_for(report, "secret-flow")
        baseline = Baseline(entries=[BaselineEntry(
            rule="secret-flow", path="cluster/handshake.py",
            message=finding.message,
            justification="TODO -- justify this flow or fix it")])
        rebased = apply_baseline(report, baseline)
        assert len(rebased.errors) == 1

    def test_stale_entry_becomes_warning(self, make_pkg):
        report = flow_run(
            {"cluster/ok.py": "def fine():\n    return 1\n"}, make_pkg)
        baseline = Baseline(entries=[BaselineEntry(
            rule="secret-flow", path="cluster/gone.py",
            message="unsanitized secret flow: ...",
            justification="was fixed long ago")])
        rebased = apply_baseline(report, baseline)
        (warning,) = findings_for(rebased, "flow-baseline")
        assert "stale baseline entry" in warning.message

    def test_entry_survives_line_shifts(self, make_pkg):
        """The fingerprint has no line number: moving code keeps the
        suppression."""
        shifted = {"cluster/handshake.py":
                   "# a comment pushing everything down\n\n\n" +
                   LEAKY["cluster/handshake.py"].replace("\n    ", "\n")}
        report = flow_run(LEAKY, make_pkg)
        (finding,) = findings_for(report, "secret-flow")
        baseline = Baseline(entries=[BaselineEntry(
            rule="secret-flow", path="cluster/handshake.py",
            message=finding.message, justification="planted")])
        report2 = flow_run(shifted, make_pkg)
        (finding2,) = findings_for(report2, "secret-flow")
        assert finding2.line != finding.line
        rebased = apply_baseline(report2, baseline)
        assert rebased.errors == []

    def test_regeneration_preserves_justifications(self, make_pkg):
        report = flow_run(LEAKY, make_pkg)
        first = baseline_from_report(report)
        assert all(e.justification.startswith("TODO")
                   for e in first.entries)
        for entry in first.entries:
            entry.justification = "reviewed and accepted"
        again = baseline_from_report(report, first)
        assert [e.justification for e in again.entries] == \
            ["reviewed and accepted"]


class TestFlowCli:
    def test_flow_cli_reports_planted_leak(self, make_pkg):
        root = make_pkg(LEAKY)
        out = io.StringIO()
        assert run_flow(["--root", str(root), "--no-baseline"],
                        stdout=out) == 1
        assert "secret-flow" in out.getvalue()

    def test_lint_flow_runs_both_families(self, make_pkg):
        root = make_pkg({"kernel/bad.py": """
            import random

            def f(self):
                self.vmpl = 2
        """})
        out = io.StringIO()
        assert run(["--root", str(root), "--flow", "--no-baseline",
                    "--format", "json"], stdout=out) == 1
        payload = json.loads(out.getvalue())
        rules_hit = {f["rule"] for f in payload["findings"]}
        assert "determinism" in rules_hit      # flow family
        assert "vmpl-literal" in rules_hit     # structural family

    def test_plain_lint_does_not_run_flow_rules(self, make_pkg):
        root = make_pkg({"kernel/bad.py": "import random\n"})
        out = io.StringIO()
        assert run(["--root", str(root)], stdout=out) == 0

    def test_list_rules_includes_flow_family(self):
        out = io.StringIO()
        assert run_flow(["--list-rules"], stdout=out) == 0
        text = out.getvalue()
        for name in ("secret-flow", "determinism", "set-iteration"):
            assert name in text

    def test_sarif_output_is_valid_and_annotatable(self, make_pkg):
        root = make_pkg(LEAKY)
        out = io.StringIO()
        run_flow(["--root", str(root), "--no-baseline",
                  "--format", "sarif"], stdout=out)
        log = json.loads(out.getvalue())
        assert log["version"] == "2.1.0"
        (sarif_run,) = log["runs"]
        (result,) = [r for r in sarif_run["results"]
                     if r["ruleId"] == "secret-flow"]
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            "cluster/handshake.py"
        assert location["region"]["startLine"] == 4    # the sink call
        assert result["suppressions"] == []

    def test_sarif_suppressed_findings_carry_justification(
            self, make_pkg):
        report = flow_run(LEAKY, make_pkg)
        (finding,) = findings_for(report, "secret-flow")
        baseline = Baseline(entries=[BaselineEntry(
            rule="secret-flow", path="cluster/handshake.py",
            message=finding.message, justification="planted")])
        log = json.loads(render_sarif(apply_baseline(report, baseline)))
        (result,) = [r for r in log["runs"][0]["results"]
                     if r["ruleId"] == "secret-flow"]
        (suppression,) = result["suppressions"]
        assert suppression["kind"] == "external"
        assert "planted" in suppression["justification"]

    def test_findings_sorted_by_path_line_rule(self, make_pkg):
        root = make_pkg({
            "kernel/z.py": "import random\nimport time\n",
            "kernel/a.py": "import random\n",
        })
        report = Analyzer(root, rules=list(FLOW_RULES)).run()
        keys = [(f.path, f.line, f.rule) for f in report.findings]
        assert keys == sorted(keys)
