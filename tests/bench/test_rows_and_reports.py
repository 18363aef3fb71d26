"""Unit tests: benchmark row dataclasses and report renderers."""

import pytest

from repro.attacks.base import AttackResult
from repro.bench.harness import (BackgroundRow, BootResult, Cs1Result,
                                 Fig4Row, Fig5Row, Fig6Row, SwitchResult)
from repro.bench.report import (render_attack_results, render_background,
                                render_boot, render_cs1, render_fig4,
                                render_fig5, render_fig6, render_switch)
from repro.hw.cycles import CLOCK_HZ


class TestRowMath:
    def test_fig4_slowdown(self):
        row = Fig4Row("open", native_cycles=1000, enclave_cycles=5500)
        assert row.slowdown == 5.5

    def test_fig4_zero_native_guard(self):
        assert Fig4Row("x", 0, 100).slowdown == 100

    def test_fig5_overhead_and_split(self):
        row = Fig5Row("App", native_cycles=1_000_000,
                      enclave_cycles=1_400_000, enclave_exits=20,
                      redirect_bytes=1000, exit_cost_cycles=300_000)
        assert row.overhead_pct == pytest.approx(40.0)
        assert row.exit_pct == pytest.approx(30.0)
        assert row.redirect_pct == pytest.approx(10.0)

    def test_fig5_exit_part_clamped_to_total(self):
        row = Fig5Row("App", native_cycles=1_000_000,
                      enclave_cycles=1_100_000, enclave_exits=20,
                      redirect_bytes=0, exit_cost_cycles=999_999_999)
        assert row.exit_pct == pytest.approx(row.overhead_pct)
        assert row.redirect_pct == 0.0

    def test_fig5_exit_rate(self):
        row = Fig5Row("App", 1, CLOCK_HZ, enclave_exits=500,
                      redirect_bytes=0, exit_cost_cycles=0)
        assert row.exit_rate_per_sec == pytest.approx(500.0)

    def test_fig6_overheads(self):
        row = Fig6Row("App", native_cycles=100, kaudit_cycles=105,
                      veils_cycles=120, veils_entries=10)
        assert row.kaudit_overhead_pct == pytest.approx(5.0)
        assert row.veils_overhead_pct == pytest.approx(20.0)

    def test_boot_result_properties(self):
        result = BootResult(memory_bytes=2 << 30,
                            veil_boot_cycles=6 * CLOCK_HZ // 3,
                            rmpadjust_cycles=CLOCK_HZ)
        assert result.veil_boot_seconds == pytest.approx(2.0)
        assert result.rmpadjust_fraction == pytest.approx(0.5)
        assert result.pct_of_native_boot == pytest.approx(100 * 2 / 15.4)

    def test_switch_result_math(self):
        result = SwitchResult(round_trips=100, total_cycles=1_500_000,
                              switch_category_cycles=1_427_000)
        assert result.cycles_per_round_trip == 15_000
        assert result.cycles_per_switch == 7135
        assert result.vs_plain_vmcall == pytest.approx(7135 / 1100)

    def test_cs1_result_math(self):
        result = Cs1Result(native_load_cycles=1000,
                           native_unload_cycles=2000,
                           kci_load_cycles=1100, kci_unload_cycles=2100)
        assert result.load_extra_cycles == 100
        assert result.load_overhead_pct == pytest.approx(10.0)
        assert result.unload_overhead_pct == pytest.approx(5.0)

    def test_background_row(self):
        row = BackgroundRow("spec", 1000, 1005)
        assert row.overhead_pct == pytest.approx(0.5)


class TestRenderers:
    def test_render_fig4(self):
        text = render_fig4([Fig4Row("open", 1000, 5000)])
        assert "open" in text and "5.0x" in text and "3.3x" in text

    def test_render_fig5(self):
        text = render_fig5([Fig5Row("GZip", 1_000_000, 1_050_000, 10,
                                    2000, 30_000)])
        assert "GZip" in text and "5.0%" in text

    def test_render_fig6(self):
        text = render_fig6([Fig6Row("NGINX", 100, 105, 115, 42)])
        assert "NGINX" in text and "15.0%" in text

    def test_render_boot(self):
        text = render_boot(BootResult(2 << 30, 6_000_000_000,
                                      5_000_000_000))
        assert "2.0 GiB" in text and "RMPADJUST" in text

    def test_render_switch(self):
        text = render_switch(SwitchResult(10, 150_000, 142_700))
        assert "7135" in text  # the paper's reference constant appears

    def test_render_background(self):
        text = render_background([BackgroundRow("spec", 100, 100)])
        assert "0.00%" in text

    def test_render_cs1(self):
        text = render_cs1(Cs1Result(1000, 2000, 1100, 2100))
        assert "+10.0%" in text and "+5.0%" in text

    def test_render_attacks_counts_expected_breaches(self):
        results = [AttackResult("a", True, "VMPL"),
                   AttackResult("b", False, "none (baseline)")]
        text = render_attack_results(results)
        assert "1/2 attacks defended" in text
        assert "[BREACHED] b" in text
