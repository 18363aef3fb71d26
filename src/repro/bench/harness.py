"""Experiment drivers: one function per table/figure of the paper.

Each ``run_*`` function boots the systems it needs, executes the
workloads, and returns plain result records for the report printers.
Their defaults are the evaluation's parameters: the module constants
below, which the per-experiment ``repro`` commands take as their
defaults too, and which :mod:`repro.bench.evaluation` runs.  Absolute
cycle counts come from the calibrated cost model; the claims under
test are the *shapes* (ratios, orderings, crossovers) documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.boot import (NativeSystem, VeilConfig, VeilSystem,
                         boot_native_system, boot_veil_system,
                         module_signing_key)
from ..enclave import EnclaveHost, build_test_binary
from ..errors import SimulationError
from ..hw.cycles import CLOCK_HZ, cycles_to_seconds
from ..kernel.audit import DEFAULT_AUDIT_RULESET, InMemoryAuditSink, \
    NullAuditSink
from ..kernel.modules import build_module
from ..workloads.audit_programs import AUDITED_PROGRAMS
from ..workloads.base import NativeApi, RunStats, measure
from ..workloads.programs import ENCLAVE_PROGRAMS
from ..workloads.spec import SPEC_WORKLOADS
from ..workloads.syscall_bench import SYSCALL_BENCHES, run_bench

#: Plain (non-SNP) VMCALL exit cost on the evaluation machine (paper
#: section 9.1); a modeled constant used as the comparison baseline.
PLAIN_VMCALL_CYCLES = 1100

#: Native CVM boot time on the paper's testbed; Veil's delta is reported
#: as a percentage of this (the simulator does not model firmware boot).
NOMINAL_NATIVE_BOOT_SECONDS = 15.4

BENCH_CONFIG = VeilConfig(memory_bytes=48 * 1024 * 1024, num_cores=2,
                          log_storage_pages=512)

#: The evaluation's parameters (``repro micro --memory-mb/--switches``,
#: ``repro cs1 --reps``, ``repro fig4 --iterations``).
BOOT_MEMORY_MB = 2048
SWITCH_ROUND_TRIPS = 5000
CS1_REPETITIONS = 100
FIG4_ITERATIONS = 30


def _fresh_pair() -> tuple[VeilSystem, NativeSystem]:
    return boot_veil_system(BENCH_CONFIG), boot_native_system(BENCH_CONFIG)


def _native_api(system) -> NativeApi:
    proc = system.kernel.create_process("bench")
    return NativeApi(system.kernel, system.boot_core, proc)


def _require_runs(name: str, count: int) -> None:
    """Refuse a loop count the per-run averages would divide by."""
    if count < 1:
        raise SimulationError(f"{name} must be at least 1, got {count}")


# ---------------------------------------------------------------------------
# Fig. 4 / Table 3: enclave syscall microbenchmarks
# ---------------------------------------------------------------------------

@dataclass
class Fig4Row:
    name: str
    native_cycles: int
    enclave_cycles: int

    @property
    def slowdown(self) -> float:
        return self.enclave_cycles / max(1, self.native_cycles)


def run_fig4(iterations: int = FIG4_ITERATIONS) -> list[Fig4Row]:
    """Regenerate Fig. 4: per-syscall native vs enclave cost."""
    _require_runs("iterations", iterations)
    veil, native = _fresh_pair()
    native_api = _native_api(native)
    native_stats = {
        bench.name: run_bench(native.machine, native_api, bench,
                              iterations=iterations)
        for bench in SYSCALL_BENCHES}
    host = EnclaveHost(veil, build_test_binary("syscall-bench",
                                               heap_pages=24))
    host.launch()
    enclave_stats: dict[str, RunStats] = {}

    def run_all(libc):
        for bench in SYSCALL_BENCHES:
            enclave_stats[bench.name] = run_bench(
                veil.machine, libc, bench, iterations=iterations)

    host.run(run_all)
    return [Fig4Row(bench.name, native_stats[bench.name].cycles,
                    enclave_stats[bench.name].cycles)
            for bench in SYSCALL_BENCHES]


# ---------------------------------------------------------------------------
# Fig. 5 / Table 4: enclave application overhead
# ---------------------------------------------------------------------------

@dataclass
class Fig5Row:
    name: str
    native_cycles: int
    enclave_cycles: int
    enclave_exits: int
    redirect_bytes: int
    exit_cost_cycles: int

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.enclave_cycles - self.native_cycles) / \
            self.native_cycles

    @property
    def exit_pct(self) -> float:
        """Enclave-Exit share of the total overhead (stacked bar)."""
        total = self.enclave_cycles - self.native_cycles
        if total <= 0:
            return 0.0
        return 100.0 * min(self.exit_cost_cycles, total) / \
            self.native_cycles

    @property
    def redirect_pct(self) -> float:
        """Syscall-Redirect share of the total overhead (stacked bar)."""
        return max(0.0, self.overhead_pct - self.exit_pct)

    @property
    def exit_rate_per_sec(self) -> float:
        return self.enclave_exits / (self.enclave_cycles / CLOCK_HZ)


def run_fig5(programs=None) -> list[Fig5Row]:
    """Regenerate Fig. 5: shield the five applications with VeilS-ENC."""
    rows = []
    for program in (programs or ENCLAVE_PROGRAMS):
        native = boot_native_system(BENCH_CONFIG)
        native_state = program.setup(native.kernel)
        native_api = _native_api(native)
        native_stats = measure(native.machine, program.name,
                               lambda: program.run(native_api,
                                                   native_state))

        veil = boot_veil_system(BENCH_CONFIG)
        veil_state = program.setup(veil.kernel)
        host = EnclaveHost(veil, build_test_binary(
            f"enc-{program.name}", heap_pages=24), shared_pages=24)
        runtime = host.launch()
        enclave_stats = measure(
            veil.machine, program.name,
            lambda: host.run(lambda libc: program.run(libc, veil_state)))
        exit_cost = runtime.enclave_exits * \
            veil.machine.cost.domain_switch
        rows.append(Fig5Row(
            name=program.name, native_cycles=native_stats.cycles,
            enclave_cycles=enclave_stats.cycles,
            enclave_exits=runtime.enclave_exits,
            redirect_bytes=runtime.redirect_bytes,
            exit_cost_cycles=exit_cost))
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 / Table 5: audited application overhead
# ---------------------------------------------------------------------------

@dataclass
class Fig6Row:
    name: str
    native_cycles: int
    kaudit_cycles: int
    veils_cycles: int
    veils_entries: int

    @property
    def kaudit_overhead_pct(self) -> float:
        return 100.0 * (self.kaudit_cycles - self.native_cycles) / \
            self.native_cycles

    @property
    def veils_overhead_pct(self) -> float:
        return 100.0 * (self.veils_cycles - self.native_cycles) / \
            self.native_cycles

    @property
    def log_rate_per_sec(self) -> float:
        return self.veils_entries / (self.veils_cycles / CLOCK_HZ)


def run_fig6(programs=None) -> list[Fig6Row]:
    """Regenerate Fig. 6: Kaudit vs VeilS-LOG on real-world programs."""
    rows = []
    for program in (programs or AUDITED_PROGRAMS):
        system = boot_veil_system(BENCH_CONFIG)
        kernel = system.kernel

        def one_run() -> RunStats:
            state = program.setup(kernel)
            api = _native_api(system)
            return measure(system.machine, program.name,
                           lambda: program.run(api, state))

        kernel.audit.set_sink(NullAuditSink())
        kernel.audit.set_ruleset(frozenset())
        native_stats = one_run()

        kernel.audit.set_sink(InMemoryAuditSink())
        kernel.audit.set_ruleset(DEFAULT_AUDIT_RULESET)
        kaudit_stats = one_run()

        sink = system.integration.enable_protected_logging()
        entries_before = system.log.entry_count
        veils_stats = one_run()
        entries = system.log.entry_count - entries_before
        rows.append(Fig6Row(
            name=program.name, native_cycles=native_stats.cycles,
            kaudit_cycles=kaudit_stats.cycles,
            veils_cycles=veils_stats.cycles, veils_entries=entries))
    return rows


# ---------------------------------------------------------------------------
# Section 9.1 microbenchmarks
# ---------------------------------------------------------------------------

@dataclass
class BootResult:
    memory_bytes: int
    veil_boot_cycles: int
    rmpadjust_cycles: int

    @property
    def veil_boot_seconds(self) -> float:
        return cycles_to_seconds(self.veil_boot_cycles)

    @property
    def rmpadjust_fraction(self) -> float:
        return self.rmpadjust_cycles / max(1, self.veil_boot_cycles)

    @property
    def pct_of_native_boot(self) -> float:
        return 100.0 * self.veil_boot_seconds / \
            NOMINAL_NATIVE_BOOT_SECONDS


def run_micro_boot(memory_mb: int = BOOT_MEMORY_MB) -> BootResult:
    """Veil's boot-time cost on a paper-sized (2 GB) guest."""
    memory_bytes = memory_mb * 1024 * 1024
    system = boot_veil_system(VeilConfig(memory_bytes=memory_bytes,
                                         num_cores=2,
                                         log_storage_pages=1024))
    delta = system.veil_boot_delta
    return BootResult(memory_bytes=memory_bytes,
                      veil_boot_cycles=delta.total,
                      rmpadjust_cycles=delta.category("rmpadjust"))


@dataclass
class SwitchResult:
    round_trips: int
    total_cycles: int
    switch_category_cycles: int

    @property
    def cycles_per_round_trip(self) -> float:
        return self.total_cycles / self.round_trips

    @property
    def cycles_per_switch(self) -> float:
        """Pure world-switch cost per direction (the paper's 7135)."""
        return self.switch_category_cycles / (2 * self.round_trips)

    @property
    def vs_plain_vmcall(self) -> float:
        return self.cycles_per_switch / PLAIN_VMCALL_CYCLES


def run_micro_switch(round_trips: int = SWITCH_ROUND_TRIPS
                     ) -> SwitchResult:
    """Average cost of a hypervisor-relayed domain switch."""
    _require_runs("round_trips", round_trips)
    system = boot_veil_system(VeilConfig(memory_bytes=32 * 1024 * 1024,
                                         num_cores=2,
                                         log_storage_pages=64))
    core = system.boot_core
    before = system.machine.ledger.snapshot()
    for _ in range(round_trips):
        system.gateway.call_monitor(core, {"op": "ping"})
    delta = system.machine.ledger.since(before)
    return SwitchResult(round_trips=round_trips, total_cycles=delta.total,
                        switch_category_cycles=delta.category(
                            "domain_switch"))


@dataclass
class BackgroundRow:
    name: str
    native_cycles: int
    veil_cycles: int

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.veil_cycles - self.native_cycles) / \
            self.native_cycles


def run_micro_background() -> list[BackgroundRow]:
    """SPEC/memcached/NGINX with Veil installed but no service in use."""
    from ..workloads.audit_programs import audited_program_by_name
    workloads = list(SPEC_WORKLOADS) + [
        audited_program_by_name("Memcached"),
        audited_program_by_name("NGINX")]
    rows = []
    for workload in workloads:
        veil, native = _fresh_pair()
        n_state = workload.setup(native.kernel)
        n_api = _native_api(native)
        n_stats = measure(native.machine, workload.name,
                          lambda: workload.run(n_api, n_state))
        v_state = workload.setup(veil.kernel)
        v_api = _native_api(veil)
        v_stats = measure(veil.machine, workload.name,
                          lambda: workload.run(v_api, v_state))
        rows.append(BackgroundRow(workload.name, n_stats.cycles,
                                  v_stats.cycles))
    return rows


# ---------------------------------------------------------------------------
# CS1: secure module load/unload
# ---------------------------------------------------------------------------

@dataclass
class Cs1Result:
    native_load_cycles: int
    native_unload_cycles: int
    kci_load_cycles: int
    kci_unload_cycles: int

    @property
    def load_extra_cycles(self) -> int:
        return self.kci_load_cycles - self.native_load_cycles

    @property
    def unload_extra_cycles(self) -> int:
        return self.kci_unload_cycles - self.native_unload_cycles

    @property
    def load_overhead_pct(self) -> float:
        return 100.0 * self.load_extra_cycles / self.native_load_cycles

    @property
    def unload_overhead_pct(self) -> float:
        return 100.0 * self.unload_extra_cycles / \
            self.native_unload_cycles


def run_cs1(repetitions: int = CS1_REPETITIONS) -> Cs1Result:
    """CS1: a 4728-byte module (24 KiB installed) loaded/unloaded 100x."""
    _require_runs("repetitions", repetitions)
    key = module_signing_key()

    def image(tag: int):
        return build_module(f"cs1_mod_{tag}", text_size=4728,
                            extra_data_pages=4, signing_key=key)

    native = boot_native_system(BENCH_CONFIG)
    native.kernel.module_loader.trusted_key = key.public
    core = native.boot_core
    native_load = native_unload = 0
    img = image(0)
    for _ in range(repetitions):
        with native.kernel.kernel_context(core):
            before = native.machine.ledger.snapshot()
            native.kernel.module_loader.load(core, img)
            native_load += native.machine.ledger.since(before).total
            before = native.machine.ledger.snapshot()
            native.kernel.module_loader.unload(core, img.name)
            native_unload += native.machine.ledger.since(before).total

    veil = boot_veil_system(BENCH_CONFIG)
    veil.integration.activate_kci(veil.boot_core)
    core = veil.boot_core
    kci_load = kci_unload = 0
    img = image(1)
    for _ in range(repetitions):
        before = veil.machine.ledger.snapshot()
        veil.integration.load_module(core, img)
        kci_load += veil.machine.ledger.since(before).total
        before = veil.machine.ledger.snapshot()
        veil.integration.unload_module(core, img.name)
        kci_unload += veil.machine.ledger.since(before).total

    return Cs1Result(
        native_load_cycles=native_load // repetitions,
        native_unload_cycles=native_unload // repetitions,
        kci_load_cycles=kci_load // repetitions,
        kci_unload_cycles=kci_unload // repetitions)
