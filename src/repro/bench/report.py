"""Plain-text renderers: print the paper's tables/figures from results."""

from __future__ import annotations

import typing

from .harness import (BackgroundRow, BootResult, Cs1Result, Fig4Row,
                      Fig5Row, Fig6Row, NOMINAL_NATIVE_BOOT_SECONDS,
                      SwitchResult)


def _rule(width: int = 72) -> str:
    return "-" * width


def render_fig4(rows: typing.Sequence[Fig4Row]) -> str:
    """Fig. 4 as a text table."""
    lines = ["Fig. 4: enclave syscall redirection cost (x over native)",
             _rule(),
             f"{'syscall':<10}{'native (cyc)':>14}{'enclave (cyc)':>16}"
             f"{'slowdown':>10}",
             _rule()]
    for row in rows:
        lines.append(f"{row.name:<10}{row.native_cycles:>14,}"
                     f"{row.enclave_cycles:>16,}{row.slowdown:>9.1f}x")
    lines.append(_rule())
    lines.append("paper band: 3.3x - 7.1x")
    return "\n".join(lines)


def render_fig5(rows: typing.Sequence[Fig5Row]) -> str:
    """Fig. 5 as a text table with the stacked split."""
    lines = ["Fig. 5: enclave application overhead (stacked split)",
             _rule(86),
             f"{'program':<10}{'overhead':>10}{'exit part':>11}"
             f"{'redirect':>10}{'exits/s':>12}{'exits':>9}"
             f"{'redirect B':>12}",
             _rule(86)]
    for row in rows:
        lines.append(
            f"{row.name:<10}{row.overhead_pct:>9.1f}%"
            f"{row.exit_pct:>10.1f}%{row.redirect_pct:>9.1f}%"
            f"{row.exit_rate_per_sec:>12,.0f}{row.enclave_exits:>9,}"
            f"{row.redirect_bytes:>12,}")
    lines.append(_rule(86))
    lines.append("paper band: 4.9% - 63.9%; exit cost dominant except for"
                 " copy-heavy servers")
    return "\n".join(lines)


def render_fig6(rows: typing.Sequence[Fig6Row]) -> str:
    """Fig. 6 as a text table."""
    lines = ["Fig. 6: audit overhead, Kaudit (in-memory) vs VeilS-LOG",
             _rule(76),
             f"{'program':<11}{'kaudit':>9}{'veils-log':>11}"
             f"{'log rate/s':>13}{'entries':>10}",
             _rule(76)]
    for row in rows:
        lines.append(
            f"{row.name:<11}{row.kaudit_overhead_pct:>8.1f}%"
            f"{row.veils_overhead_pct:>10.1f}%"
            f"{row.log_rate_per_sec:>13,.0f}{row.veils_entries:>10,}")
    lines.append(_rule(76))
    lines.append("paper bands: Kaudit 0.3-8.7%, VeilS-LOG 1.4-18.7%")
    return "\n".join(lines)


def render_boot(result: BootResult) -> str:
    """Section 9.1 boot-cost summary."""
    gib = result.memory_bytes / 1024 ** 3
    return "\n".join([
        "Section 9.1: Veil boot-time cost", _rule(),
        f"guest {gib:.1f} GiB: +{result.veil_boot_seconds:.2f} s "
        f"({result.pct_of_native_boot:.0f}% of a "
        f"{NOMINAL_NATIVE_BOOT_SECONDS:.1f} s native CVM boot), "
        f"RMPADJUST share {100 * result.rmpadjust_fraction:.0f}%",
        "paper: ~2 s (~13%), >70% in RMPADJUST"])


def render_switch(result: SwitchResult) -> str:
    """Section 9.1 domain-switch cost summary."""
    return "\n".join([
        "Section 9.1: hypervisor-relayed domain switch cost",
        _rule(),
        f"round trips measured : {result.round_trips:,}",
        f"cycles per round trip: {result.cycles_per_round_trip:,.0f}",
        f"cycles per switch    : {result.cycles_per_switch:,.0f} "
        "(paper: 7135)",
        f"vs plain VMCALL exit : {result.vs_plain_vmcall:.1f}x "
        "(paper: ~6.5x over ~1100 cycles)",
    ])


def render_background(rows: typing.Sequence[BackgroundRow]) -> str:
    """Section 9.1 background-impact table."""
    lines = ["Section 9.1: background impact (no protected service in use)",
             _rule(),
             f"{'workload':<22}{'native (cyc)':>16}{'veil (cyc)':>16}"
             f"{'delta':>8}",
             _rule()]
    for row in rows:
        lines.append(f"{row.name:<22}{row.native_cycles:>16,}"
                     f"{row.veil_cycles:>16,}{row.overhead_pct:>7.2f}%")
    lines.append(_rule())
    lines.append("paper: <2% across SPEC, memcached, NGINX")
    return "\n".join(lines)


def render_cs1(result: Cs1Result) -> str:
    """CS1 module load/unload summary."""
    return "\n".join([
        "CS1: secure module load/unload (VeilS-KCI)",
        _rule(),
        f"native load   : {result.native_load_cycles:>12,} cycles",
        f"KCI load      : {result.kci_load_cycles:>12,} cycles "
        f"(+{result.load_extra_cycles:,}, "
        f"+{result.load_overhead_pct:.1f}%)",
        f"native unload : {result.native_unload_cycles:>12,} cycles",
        f"KCI unload    : {result.kci_unload_cycles:>12,} cycles "
        f"(+{result.unload_extra_cycles:,}, "
        f"+{result.unload_overhead_pct:.1f}%)",
        "paper: ~55k extra cycles; +5.7% load, +4.2% unload",
    ])


def render_attack_results(results) -> str:
    """Tables 1/2 + 8.3 attack outcomes listing."""
    lines = ["Security validation (Tables 1 & 2, section 8.3)", _rule(80)]
    for result in results:
        lines.append(str(result))
    lines.append(_rule(80))
    defended = sum(1 for r in results if r.defended)
    lines.append(f"{defended}/{len(results)} attacks defended "
                 "(baseline rows are expected breaches)")
    return "\n".join(lines)
