"""Ablation experiments for the design choices DESIGN.md calls out.

Each ``run_*`` returns plain dicts (or ``BootResult`` rows) and takes
its parameters from the module constants below.  ``repro ablations``
prints them through :func:`render_ablations`, as the last section of
the evaluation (:mod:`repro.bench.evaluation`); the bounds they must
meet are tier-1 tests (``tests/bench/test_shapes.py``).
"""

from __future__ import annotations

from ..core.boot import (VeilConfig, boot_native_system,
                         boot_veil_system)
from ..enclave import EnclaveHost, build_test_binary
from ..kernel.fs import O_APPEND, O_CREAT, O_RDWR
from ..workloads.base import NativeApi, measure
from .harness import run_micro_boot

ABLATION_CONFIG = VeilConfig(memory_bytes=48 * 1024 * 1024, num_cores=2,
                             log_storage_pages=64)


# ---------------------------------------------------------------------------
# Syscall batching (section 10)
# ---------------------------------------------------------------------------

BATCH_INSERTS = 256
BATCH_SIZE = 16
_BATCH_VALUE = b"v" * 100
_BATCH_COMPUTE = 33_000


def _run_inserts(batched: bool) -> tuple:
    system = boot_veil_system(ABLATION_CONFIG)
    host = EnclaveHost(system, build_test_binary("ablate",
                                                 heap_pages=16),
                       shared_pages=16)
    runtime = host.launch()

    def unbatched_body(libc):
        fd = libc.open("/tmp/db", O_CREAT | O_RDWR | O_APPEND)
        for _ in range(BATCH_INSERTS):
            libc.compute(_BATCH_COMPUTE)
            libc.write(fd, _BATCH_VALUE)
        libc.close(fd)

    def batched_body(libc):
        fd = libc.open("/tmp/db", O_CREAT | O_RDWR | O_APPEND)
        for _ in range(BATCH_INSERTS // BATCH_SIZE):
            with libc.batch() as batch:
                for _ in range(BATCH_SIZE):
                    libc.compute(_BATCH_COMPUTE)
                    batch.write(fd, _BATCH_VALUE)
        libc.close(fd)

    body = batched_body if batched else unbatched_body
    stats = measure(system.machine, "inserts", lambda: host.run(body))
    return stats, runtime


def run_batching_ablation() -> dict:
    """Per-call exits vs batched exits on an insert loop."""
    plain, plain_rt = _run_inserts(batched=False)
    batched, batched_rt = _run_inserts(batched=True)
    return {
        "plain_cycles": plain.cycles,
        "batched_cycles": batched.cycles,
        "plain_exits": plain_rt.enclave_exits,
        "batched_exits": batched_rt.enclave_exits,
        "speedup": plain.cycles / batched.cycles,
    }


# ---------------------------------------------------------------------------
# Boot-sweep scaling
# ---------------------------------------------------------------------------

BOOT_SIZES_MB = (256, 512, 1024, 2048)


def run_boot_scaling() -> list:
    """One ``BootResult`` per guest size of :data:`BOOT_SIZES_MB`."""
    return [run_micro_boot(size_mb) for size_mb in BOOT_SIZES_MB]


# ---------------------------------------------------------------------------
# Domain-switch cost vs IDCB payload
# ---------------------------------------------------------------------------

PAYLOAD_SIZES = (16, 256, 2048, 8192)
PAYLOAD_ROUND_TRIPS = 300


def run_payload_sweep() -> list:
    """Cycles per monitor round trip at each of :data:`PAYLOAD_SIZES`."""
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64))
    core = system.boot_core
    rows = []
    for size in PAYLOAD_SIZES:
        payload = "x" * size
        before = system.machine.ledger.snapshot()
        for _ in range(PAYLOAD_ROUND_TRIPS):
            system.gateway.call_monitor(core, {"op": "ping",
                                               "payload": payload})
        delta = system.machine.ledger.since(before)
        rows.append({"payload_bytes": size,
                     "cycles_per_call": delta.total // PAYLOAD_ROUND_TRIPS})
    return rows


# ---------------------------------------------------------------------------
# WBINVD-on-exit flush (section 10)
# ---------------------------------------------------------------------------

FLUSH_WRITES = 128


def _run_flush_variant(flush: bool) -> tuple:
    system = boot_veil_system(ABLATION_CONFIG)
    host = EnclaveHost(system, build_test_binary("flush", heap_pages=16),
                       shared_pages=16)
    host.launch()

    def body(libc):
        if flush:
            libc.enable_sidechannel_flush()
        fd = libc.open("/tmp/log", O_CREAT | O_RDWR | O_APPEND)
        for _ in range(FLUSH_WRITES):
            libc.compute(30_000)
            libc.write(fd, b"entry" * 8)
        libc.close(fd)

    stats = measure(system.machine, "flush", lambda: host.run(body))
    residue = f"enclave-{host.enclave_id}" in \
        system.boot_core.microarch_residue
    return stats.cycles, residue


def run_flush_ablation() -> dict:
    """Cost and efficacy of WBINVD-on-exit flushing."""
    plain_cycles, plain_residue = _run_flush_variant(flush=False)
    flush_cycles, flush_residue = _run_flush_variant(flush=True)
    return {
        "plain_cycles": plain_cycles,
        "flush_cycles": flush_cycles,
        "overhead_pct": 100.0 * (flush_cycles - plain_cycles) /
        plain_cycles,
        "plain_leaks_residue": plain_residue,
        "flush_leaks_residue": flush_residue,
    }


# ---------------------------------------------------------------------------
# vSGX-style deployment comparison (section 11)
# ---------------------------------------------------------------------------

VSGX_N = 4
VSGX_CONFIG = VeilConfig(memory_bytes=32 * 1024 * 1024, num_cores=2,
                         log_storage_pages=64)
_VSGX_COMPUTE = 5_000_000


def _vsgx_native_computation(api) -> None:
    api.compute(_VSGX_COMPUTE)
    api.printf("result ready\n")


def _vsgx_enclave_computation(libc) -> None:
    libc.compute(_VSGX_COMPUTE)
    libc.printf("result ready\n")


def run_vsgx_comparison() -> dict:
    """Total and marginal cost of :data:`VSGX_N` shielded computations
    both ways."""
    n = VSGX_N
    vsgx_cycles = 0
    for index in range(n):
        system = boot_native_system(VSGX_CONFIG)
        proc = system.kernel.create_process(f"vsgx-{index}")
        api = NativeApi(system.kernel, system.boot_core, proc)
        _vsgx_native_computation(api)
        vsgx_cycles += system.machine.ledger.total
    vsgx_marginal = vsgx_cycles // n

    veil = boot_veil_system(VSGX_CONFIG)
    veil_marginal = None
    for index in range(n):
        before = veil.machine.ledger.total
        host = EnclaveHost(veil, build_test_binary(f"veil-{index}",
                                                   heap_pages=4))
        host.launch()
        host.run(_vsgx_enclave_computation)
        if veil_marginal is None:
            veil_marginal = veil.machine.ledger.total - before
    return {
        "n": n,
        "vsgx_cycles": vsgx_cycles,
        "veil_cycles": veil.machine.ledger.total,
        "vsgx_memory_mb": n * VSGX_CONFIG.memory_bytes // (1024 * 1024),
        "veil_memory_mb": VSGX_CONFIG.memory_bytes // (1024 * 1024),
        "memory_advantage": float(n),
        "vsgx_marginal_cycles": vsgx_marginal,
        "veil_marginal_cycles": veil_marginal,
        "marginal_advantage": vsgx_marginal / veil_marginal,
    }


def render_ablations(batching: dict, flush: dict, vsgx: dict,
                     boot_rows: list, payload_rows: list) -> str:
    """One combined human-readable ablation report."""
    lines = ["Ablations (design-choice experiments)", "=" * 64]
    lines.append(
        f"syscall batching : {batching['speedup']:.2f}x speedup, "
        f"{batching['plain_exits']:,} -> {batching['batched_exits']:,} "
        "switches")
    lines.append(
        f"WBINVD-on-exit   : +{flush['overhead_pct']:.0f}% cost; residue "
        f"observable {flush['plain_leaks_residue']} -> "
        f"{flush['flush_leaks_residue']}")
    lines.append(
        f"vSGX comparison  : {vsgx['marginal_advantage']:.1f}x cheaper "
        f"marginal provisioning, {vsgx['memory_advantage']:.0f}x less "
        "memory")
    lines.append(
        f"                   ({vsgx['vsgx_marginal_cycles']:,} vs "
        f"{vsgx['veil_marginal_cycles']:,} cycles per added computation)")
    lines.append("boot sweep scaling:")
    for row in boot_rows:
        lines.append(f"  {row.memory_bytes >> 20:>5} MiB: "
                     f"{row.veil_boot_seconds:.3f} s "
                     f"(rmpadjust {100 * row.rmpadjust_fraction:.0f}%)")
    lines.append("monitor round trip vs IDCB payload:")
    for row in payload_rows:
        lines.append(f"  {row['payload_bytes']:>6} B: "
                     f"{row['cycles_per_call']:>8,} cycles/call")
    return "\n".join(lines)
