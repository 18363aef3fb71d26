"""Benchmark drivers and report renderers for the paper's evaluation."""

from .cluster import (ClusterScalingRow, SCALING_FLEET_SIZES,
                      render_cluster_scaling, run_cluster_scaling)
from .harness import (BackgroundRow, BENCH_CONFIG, BootResult, Cs1Result,
                      Fig4Row, Fig5Row, Fig6Row, NOMINAL_NATIVE_BOOT_SECONDS,
                      PLAIN_VMCALL_CYCLES, SwitchResult, run_cs1, run_fig4,
                      run_fig5, run_fig6, run_micro_background,
                      run_micro_boot, run_micro_switch)
from .report import (render_attack_results, render_background, render_boot,
                     render_cs1, render_fig4, render_fig5, render_fig6,
                     render_switch)

__all__ = [
    "BackgroundRow", "BENCH_CONFIG", "BootResult", "Cs1Result", "Fig4Row",
    "Fig5Row", "Fig6Row", "NOMINAL_NATIVE_BOOT_SECONDS",
    "PLAIN_VMCALL_CYCLES", "SwitchResult", "run_cs1", "run_fig4",
    "run_fig5", "run_fig6", "run_micro_background", "run_micro_boot",
    "run_micro_switch", "render_attack_results", "render_background",
    "render_boot", "render_cs1", "render_fig4", "render_fig5",
    "render_fig6", "render_switch",
    "ClusterScalingRow", "SCALING_FLEET_SIZES", "render_cluster_scaling",
    "run_cluster_scaling",
]
