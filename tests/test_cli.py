"""Smoke tests: the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        ["all", "--memory-mb", "0"],
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


class TestCommands:
    def test_boot(self, capsys):
        main(["boot", "--memory-mb", "32"])
        out = capsys.readouterr().out
        assert "veils-kci" in out and "attestation: OK" in out

    def test_cs1(self, capsys):
        main(["cs1", "--reps", "5"])
        out = capsys.readouterr().out
        assert "KCI load" in out

    def test_fig4(self, capsys):
        main(["fig4", "--iterations", "5"])
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
        # The counters are summary-only: the exported Chrome trace must
        # not embed them (it stays identical across VEIL_TLB modes).
        assert "tlb/" not in out_path.read_text()
