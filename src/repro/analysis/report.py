"""Finding reporters: human-readable text, JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from pathlib import Path

from .engine import AnalysisReport, Severity


def render_text(report: AnalysisReport, *, show_suppressed: bool = False
                ) -> str:
    """``file:line: severity[rule]: message`` lines plus a summary."""
    lines = []
    for finding in report.findings:
        if finding.suppressed:
            if show_suppressed:
                lines.append(
                    f"{finding.location}: suppressed[{finding.rule}]: "
                    f"{finding.message} (reason: "
                    f"{finding.suppress_reason})")
            continue
        lines.append(f"{finding.location}: "
                     f"{finding.severity.value}[{finding.rule}]: "
                     f"{finding.message}")
    errors, warnings = report.errors, report.warnings
    verdict = "FAIL" if errors else "ok"
    lines.append(
        f"veil-lint: {verdict} -- {len(errors)} error(s), "
        f"{len(warnings)} warning(s), {len(report.suppressed)} "
        f"suppressed across {report.module_count} modules")
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """The full report as a stable, sorted JSON document."""
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


def _sarif_uri(path: str, root: str) -> str:
    """Finding path as a root-relative, '/'-separated SARIF URI."""
    try:
        return Path(path).resolve().relative_to(
            Path(root).resolve()).as_posix()
    except ValueError:
        return Path(path).as_posix()


def render_sarif(report: AnalysisReport) -> str:
    """The report as a SARIF 2.1.0 log (CI annotation format).

    Suppressed findings are emitted with a populated ``suppressions``
    array (SARIF viewers hide them by default but keep the
    justification); active findings carry an empty one.
    """
    results = []
    for finding in report.findings:
        level = ("error" if finding.severity is Severity.ERROR
                 else "warning")
        result = {
            "ruleId": finding.rule,
            "level": level,
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _sarif_uri(finding.path, report.root)},
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
            "suppressions": [],
        }
        if finding.suppressed:
            reason = finding.suppress_reason or ""
            kind = ("external" if reason.startswith("baseline:")
                    else "inSource")
            result["suppressions"] = [{
                "kind": kind,
                "justification": reason,
            }]
        results.append(result)
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "veil-lint",
                "rules": [{"id": name}
                          for name in sorted(set(report.rule_names))],
            }},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True)
