"""Smoke tests: the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {"boot", "micro", "cs1", "fig4",
                                    "fig5", "fig6", "attacks", "ltp",
                                    "cluster", "chaos", "scope", "lint",
                                    "flow", "trace", "surge", "export",
                                    "ablations", "all"}

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDegenerateSizes:
    """A size the simulator cannot run exits 2 with one error line."""

    @pytest.mark.parametrize("argv", [
        ["cluster", "--replicas", "0"],
        ["cluster", "--replicas", "-1"],
        ["surge", "--replicas", "0"],
        ["surge", "--requests", "0"],
        ["chaos", "--replicas", "0"],
        ["chaos", "--replicas", "-1"],
        ["scope", "--replicas", "0"],
        ["fig4", "--iterations", "0"],
        ["cs1", "--reps", "0"],
        ["micro", "--switches", "0", "--memory-mb", "32"],
        ["surge", "--replicas", "2", "--requests", "50", "--load", "-1"],
        ["surge", "--replicas", "2", "--requests", "50", "--load", "0"],
        ["surge", "--replicas", "2", "--requests", "50",
         "--admit-limit", "-1"],
        ["surge", "--replicas", "2", "--requests", "50",
         "--min-active", "5"],
        ["surge", "--replicas", "2", "--requests", "50",
         "--min-active", "-1"],
        ["surge", "--requests", "-5"],
        ["chaos", "--replicas", "2", "--requests", "-3"],
        ["chaos", "--replicas", "2", "--requests", "0"],
        ["cluster", "--replicas", "2", "--requests", "-1"],
        ["cluster", "--replicas", "2", "--tampered", "a"],
        ["cluster", "--replicas", "2", "--tampered", "7",
         "--requests", "10"],
        ["cluster", "--capacity", "0"],
        ["trace", "switch", "--capacity", "-5"],
        ["scope", "--capacity", "0"],
        ["boot", "--cores", "0"],
        ["chaos", "--replicas", "1", "--schedule", "byzantine",
         "--requests", "10"],
        ["scope", "--replicas", "1", "--schedule", "byzantine",
         "--requests", "6"],
        ["boot", "--memory-mb", "0"],
        ["boot", "--memory-mb", "-8"],
        ["micro", "--memory-mb", "0"],
        ["boot", "--memory-mb", "4"],
        ["boot", "--memory-mb", "5"],
        ["micro", "--memory-mb", "4"],
        ["trace", "switch", "--top", "-2"],
    ], ids=" ".join)
    def test_exits_2_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("argv", [
        ["trace", "switch", "--out"],
        ["cluster", "--out"],
        ["scope", "--out"],
        ["scope", "--json"],
        ["surge", "--smoke", "--json"],
        ["surge", "--knee", "--json"],
    ], ids=" ".join)
    def test_unwritable_output_refused_before_the_run(self, capsys,
                                                      tmp_path, argv,
                                                      target):
        path = tmp_path if target == "directory" \
            else tmp_path / "missing" / "out.json"
        with pytest.raises(SystemExit) as exited:
            main(argv + [str(path)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro: error: cannot write {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("under", ["", "x/y"], ids=["file", "under-file"])
    def test_export_onto_a_file_refused_before_the_run(self, capsys,
                                                       tmp_path, under):
        """``export --out`` names a directory it creates: a file at the
        path or above it is refused, not met by ``mkdir``."""
        afile = tmp_path / "afile"
        afile.touch()
        path = afile / under if under else afile
        with pytest.raises(SystemExit) as exited:
            main(["export", "--out", str(path)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"repro: error: cannot write {path}: "
                                f"{afile} is not a directory\n")

    def test_export_onto_a_directory_named_like_a_file_refused(
            self, capsys, tmp_path):
        """A directory where the export would write ``fig4.json`` is
        refused before the first write, and nothing is written."""
        (tmp_path / "fig4.json").mkdir()
        with pytest.raises(SystemExit) as exited:
            main(["export", "--out", str(tmp_path)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"repro: error: cannot write "
                                f"{tmp_path / 'fig4.json'}: it is a "
                                "directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["fig4.json"]


class TestAll:
    """``repro all`` prints the evaluation's sections in order, each
    followed by a blank line, and takes no flags."""

    @staticmethod
    def stub(monkeypatch, *sections):
        from repro.bench import evaluation
        monkeypatch.setattr(evaluation, "EXPERIMENTS",
                            tuple(lambda s=s: s for s in sections))

    def test_prints_each_section_then_a_blank_line(self, capsys,
                                                   monkeypatch):
        from repro.bench.evaluation import Section
        self.stub(monkeypatch, Section("a", "one", {}),
                  Section("b", "two\nlines", {}))
        main(["all"])
        assert capsys.readouterr().out == "one\n\ntwo\nlines\n\n"

    def test_a_failed_section_exits_1_after_the_rest(self, capsys,
                                                     monkeypatch):
        from repro.bench.evaluation import Section
        self.stub(monkeypatch, Section("a", "breach", {}, ok=False),
                  Section("b", "rest", {}))
        with pytest.raises(SystemExit) as exited:
            main(["all"])
        assert exited.value.code == 1
        assert capsys.readouterr().out == "breach\n\nrest\n\n"

    def test_takes_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["all", "--memory-mb", "4"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_boot(self, capsys):
        main(["boot", "--memory-mb", "32"])
        out = capsys.readouterr().out
        assert "veils-kci" in out and "attestation: OK" in out

    def test_cs1(self, capsys):
        main(["cs1"])
        out = capsys.readouterr().out
        assert "KCI load" in out

    def test_fig4(self, capsys):
        main(["fig4"])
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_attacks_exit_zero_when_all_defended(self, capsys):
        main(["attacks"])
        out = capsys.readouterr().out
        assert "attacks defended" in out

    def test_cluster(self, capsys):
        main(["cluster", "--replicas", "2", "--requests", "20"])
        out = capsys.readouterr().out
        assert "replica0" in out and "replica1" in out
        assert "audit" in out

    def test_cluster_tampered_exits_nonzero_only_on_audit(self, capsys):
        main(["cluster", "--replicas", "2", "--requests", "10",
              "--tampered", "1"])
        out = capsys.readouterr().out
        assert "REJECTED" in out

    def test_chaos(self, capsys):
        main(["chaos", "--seed", "5", "--schedule", "crash",
              "--requests", "24"])
        out = capsys.readouterr().out
        assert "veil-chaos" in out
        assert "replayable from the seed" in out
        assert "no plaintext" in out and "audit chains OK" in out

    def test_scope(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet.json"
        main(["scope", "--replicas", "2", "--requests", "16",
              "--seed", "2", "--out", str(trace_path)])
        out = capsys.readouterr().out
        assert "veil-scope" in out
        assert "p50" in out and "p99" in out
        assert "faults:" in out
        assert trace_path.exists()

    def test_lint_clean_tree(self, capsys):
        main(["lint"])
        out = capsys.readouterr().out
        assert "veil-lint: ok" in out

    def test_trace(self, capsys, tmp_path):
        out_path = tmp_path / "switch.trace.json"
        main(["trace", "switch", "--out", str(out_path), "--top", "3"])
        out = capsys.readouterr().out
        assert "veil-trace summary" in out
        assert "DomUNT->DomMON" in out
        import json
        from repro.trace import validate_chrome_trace
        assert validate_chrome_trace(
            json.loads(out_path.read_text())) == []

    def test_lint_list_rules(self, capsys):
        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert "layering" in out and "suppression-hygiene" in out

    def test_flow_passes_every_flag_to_the_analysis_tool(self, capsys):
        """A rule subset, no baseline and JSON output all reach the
        flow analysis: the unbaselined determinism findings fail it."""
        with pytest.raises(SystemExit) as exited:
            main(["flow", "--rules", "determinism", "--no-baseline",
                  "--format", "json"])
        assert exited.value.code == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert findings
        assert {finding["rule"] for finding in findings} == {"determinism"}
        assert not any(finding["suppressed"] for finding in findings)

    @pytest.mark.parametrize("command, title",
                             [("lint", "veil-lint"), ("flow", "veil-flow")])
    def test_analysis_help_is_the_tools_own(self, capsys, command, title):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command} ")
        assert title in out and "--no-baseline" in out

    def test_unknown_flag_of_another_command_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["boot", "--flow"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --flow" in capsys.readouterr().err

    def test_ltp_verbose(self, capsys):
        main(["ltp", "--verbose"])
        out = capsys.readouterr().out
        assert "LTP conformance" in out
        assert "ptrace" in out

    def test_trace_summary_includes_tlb_counters(self, capsys, tmp_path):
        out_path = tmp_path / "syscalls.trace.json"
        main(["trace", "syscalls", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert "software TLB" in out
        # The counters are summary-only: the exported Chrome trace holds
        # model state only, so it must not embed them.
        assert "tlb/" not in out_path.read_text()


class TestClosedPipe:
    """A reader that stops early (``repro attacks | head -1``) ends the
    run quietly: no ``BrokenPipeError`` traceback on stderr, not even
    from the interpreter's flush at exit."""

    @staticmethod
    def run_and_close(argv, lines):
        """Run ``repro <argv>``, read ``lines`` lines of its stdout, then
        close the pipe; returns ``(stderr, status)``."""
        # Unbuffered: each print reaches the pipe as it is made, so the
        # first line arrives before the rest is written.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        return stderr, proc.wait(timeout=120)

    @pytest.mark.parametrize("argv", [["attacks"], ["fig4"]],
                             ids=["attacks", "fig4"])
    def test_after_the_first_line(self, argv):
        stderr, status = self.run_and_close(argv, 1)
        assert stderr == b""
        assert status in (0, 1)

    @pytest.mark.parametrize("argv", [["attacks"], ["fig4"]],
                             ids=["attacks", "fig4"])
    def test_before_the_first_write(self, argv):
        """Closed before the command prints anything, so its first write
        is certain to meet the closed pipe."""
        stderr, status = self.run_and_close(argv, 0)
        assert stderr == b""
        assert status == 1
