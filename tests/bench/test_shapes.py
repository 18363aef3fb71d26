"""Shape tests: the evaluation must regenerate the paper's shapes.

These assert *relations* (orderings, bands, crossovers) rather than
absolute numbers, per DESIGN.md's reproduction criteria, on the one
evaluation ``repro all`` prints: the session's ``evaluation`` fixture.
"""

import pytest

from repro.bench.ablations import PAYLOAD_SIZES


@pytest.fixture(scope="module")
def fig4_rows(evaluation):
    return evaluation["fig4"].rows["fig4"]


@pytest.fixture(scope="module")
def fig5_rows(evaluation):
    return evaluation["fig5"].rows["fig5"]


@pytest.fixture(scope="module")
def fig6_rows(evaluation):
    return evaluation["fig6"].rows["fig6"]


@pytest.fixture(scope="module")
def micro(evaluation):
    return evaluation["micro"].rows


@pytest.fixture(scope="module")
def ablation(evaluation):
    return evaluation["ablations"].rows


class TestFig4Shape:
    def test_all_syscalls_slower_in_enclave(self, fig4_rows):
        for row in fig4_rows:
            assert row.slowdown > 1.5, row.name

    def test_band_matches_paper(self, fig4_rows):
        """Paper: 3.3x - 7.1x across the seven benchmarks."""
        slowdowns = [row.slowdown for row in fig4_rows]
        assert 3.0 <= min(slowdowns) <= 4.5
        assert 5.5 <= max(slowdowns) <= 8.5

    def test_munmap_is_worst_case(self, fig4_rows):
        by_name = {row.name: row.slowdown for row in fig4_rows}
        assert by_name["munmap"] == max(by_name.values())

    def test_bulk_data_syscalls_amortize_best(self, fig4_rows):
        """10 KB read/write amortize the fixed exit cost (lowest ratios)."""
        by_name = {row.name: row.slowdown for row in fig4_rows}
        assert by_name["read"] < by_name["open"]
        assert by_name["write"] < by_name["munmap"]


class TestFig5Shape:
    def test_overhead_band(self, fig5_rows):
        """Paper: 4.9% - 63.9%."""
        values = [row.overhead_pct for row in fig5_rows]
        assert 2.0 <= min(values) <= 10.0
        assert 50.0 <= max(values) < 75.0

    def test_ordering_matches_paper(self, fig5_rows):
        by_name = {row.name: row.overhead_pct for row in fig5_rows}
        assert by_name["GZip"] < by_name["MbedTLS"] < \
            by_name["Lighttpd"] < by_name["UnQlite"] < by_name["SQLite"]

    def test_exit_cost_dominates_for_syscall_heavy_apps(self, fig5_rows):
        for row in fig5_rows:
            if row.name in ("SQLite", "UnQlite"):
                assert row.exit_pct > row.redirect_pct

    def test_lighttpd_redirect_share_is_highest_among_servers(
            self, fig5_rows):
        """Paper: lighttpd's 10 KB response copies make syscall-redirect
        its dominant overhead source.  In this model the measured exit
        cost outweighs copies (see EXPERIMENTS.md), but the *relative*
        redirect share is still largest for lighttpd among the
        syscall-driven applications."""
        share = {row.name: row.redirect_pct / max(row.overhead_pct, 1e-9)
                 for row in fig5_rows}
        for other in ("SQLite", "UnQlite", "MbedTLS"):
            assert share["Lighttpd"] > share[other]

    def test_overhead_tracks_exit_rate(self, fig5_rows):
        ordered = sorted(fig5_rows, key=lambda r: r.exit_rate_per_sec)
        overheads = [row.overhead_pct for row in ordered]
        assert overheads == sorted(overheads)


class TestFig6Shape:
    def test_veils_always_above_kaudit(self, fig6_rows):
        for row in fig6_rows:
            assert row.veils_overhead_pct > row.kaudit_overhead_pct, \
                row.name

    def test_bands_match_paper(self, fig6_rows):
        """Paper: Kaudit 0.3-8.7%, VeilS-LOG 1.4-18.7%."""
        kaudit = [row.kaudit_overhead_pct for row in fig6_rows]
        veils = [row.veils_overhead_pct for row in fig6_rows]
        assert max(kaudit) <= 10.0
        assert 10.0 <= max(veils) <= 25.0
        assert min(veils) >= 0.5

    def test_overhead_monotone_in_log_rate(self, fig6_rows):
        ordered = sorted(fig6_rows, key=lambda r: r.log_rate_per_sec)
        veils = [row.veils_overhead_pct for row in ordered]
        assert veils == sorted(veils)

    def test_memcached_is_worst_case(self, fig6_rows):
        worst = max(fig6_rows, key=lambda r: r.veils_overhead_pct)
        assert worst.name == "Memcached"


class TestMicrobenchShapes:
    def test_boot_time_2gb_guest(self, micro):
        """Paper: ~2 s, ~13% of a native CVM boot, >70% in RMPADJUST."""
        result, = micro["micro_boot"]
        assert result.memory_bytes == 2 * 1024 ** 3
        assert 1.5 <= result.veil_boot_seconds <= 2.5
        assert result.rmpadjust_fraction > 0.7
        assert 10.0 <= result.pct_of_native_boot <= 16.0

    def test_domain_switch_is_7135_cycles(self, micro):
        result, = micro["micro_switch"]
        assert result.cycles_per_switch == pytest.approx(7135, rel=0.01)
        assert 5.0 <= result.vs_plain_vmcall <= 8.0

    def test_cs1_matches_paper(self, evaluation):
        result, = evaluation["cs1"].rows["cs1"]
        assert 4.0 <= result.load_overhead_pct <= 8.0      # paper: 5.7%
        assert 3.0 <= result.unload_overhead_pct <= 6.0    # paper: 4.2%
        assert 40_000 <= result.load_extra_cycles <= 70_000

    def test_background_impact_negligible(self, micro):
        """Paper: <2% with no protected service in use."""
        for row in micro["micro_background"]:
            assert abs(row.overhead_pct) < 2.0, row.name


class TestSecurityTables:
    def test_only_baseline_rows_breach(self, evaluation):
        """The one expected breach is the unprotected Kaudit baseline."""
        section = evaluation["attacks"]
        breaches = [r for r in section.rows["attacks"] if not r.defended]
        assert all("baseline" in r.defense for r in breaches)
        assert section.ok


class TestAblationShapes:
    def test_batching_cuts_exits_and_cycles(self, ablation):
        result, = ablation["ablation_batching"]
        assert result["batched_exits"] < result["plain_exits"] / 4
        assert result["speedup"] > 1.1

    def test_boot_cost_doubles_with_memory(self, ablation):
        """The full sweep, 256 MiB to the paper's 2 GiB guest."""
        rows = ablation["ablation_boot"]
        assert (rows[0].memory_bytes, rows[-1].memory_bytes) == \
            (256 << 20, 2 << 30)
        for small, large in zip(rows, rows[1:]):
            ratio = large.veil_boot_cycles / small.veil_boot_cycles
            assert 1.7 <= ratio <= 2.3, (small.memory_bytes, ratio)

    def test_flush_on_exit_closes_the_residue_channel(self, ablation):
        result, = ablation["ablation_flush"]
        assert result["plain_leaks_residue"] is True
        assert result["flush_leaks_residue"] is False
        assert result["overhead_pct"] > 5.0

    def test_switch_cost_fixed_plus_linear_copy(self, ablation):
        rows = ablation["ablation_payload"]
        base = rows[0]["cycles_per_call"]
        assert base >= 2 * 7135
        grow = rows[-1]["cycles_per_call"] - base
        per_byte = grow / (PAYLOAD_SIZES[-1] - PAYLOAD_SIZES[0])
        assert 0.3 <= per_byte <= 3.0

    def test_vsgx_comparison(self, ablation):
        result, = ablation["ablation_vsgx"]
        assert result["memory_advantage"] == result["n"]
        assert result["marginal_advantage"] > 1.5
