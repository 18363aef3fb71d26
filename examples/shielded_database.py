#!/usr/bin/env python3
"""Shielded database: run the SQLite workload inside a VeilS-ENC enclave.

The paper's motivating scenario (section 6.2): a computation over
sensitive data runs in an in-process enclave that the *operating system
itself* cannot read, while the OS still provides files and scheduling.

This example:
1. measures the database workload natively and inside an enclave
   (regenerating one Fig. 5 bar, overhead + exit rate);
2. demonstrates the confidentiality property: a fully compromised kernel
   trying to read the enclave's working memory halts the CVM;
3. demonstrates secure demand paging: a page swapped out by the OS comes
   back verified, and a corrupted swap blob is rejected.
"""

from repro import VeilConfig, boot_native_system, boot_veil_system
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import CvmHalted, SecurityViolation
from repro.hw.cycles import CLOCK_HZ
from repro.workloads.base import NativeApi, measure
from repro.workloads.programs import program_by_name

CONFIG = VeilConfig(memory_bytes=48 * 1024 * 1024, num_cores=2)


def run_native(program):
    system = boot_native_system(CONFIG)
    state = program.setup(system.kernel)
    proc = system.kernel.create_process("sqlite")
    api = NativeApi(system.kernel, system.boot_core, proc)
    return measure(system.machine, "native",
                   lambda: program.run(api, state))


def run_shielded(program):
    system = boot_veil_system(CONFIG)
    state = program.setup(system.kernel)
    host = EnclaveHost(system, build_test_binary("sqlite-enclave",
                                                 heap_pages=24),
                       shared_pages=24)
    host.launch()
    stats = measure(
        system.machine, "enclave",
        lambda: host.run(lambda libc: program.run(libc, state)))
    return system, host, stats


def main() -> None:
    program = program_by_name("SQLite")
    print(f"workload: {program.name} -- {program.setting}")

    native = run_native(program)
    system, host, shielded = run_shielded(program)
    runtime = host.runtime

    overhead = 100.0 * shielded.overhead_vs(native)
    exit_rate = runtime.enclave_exits / (shielded.cycles / CLOCK_HZ)
    print(f"\nnative   : {native.cycles:>12,} cycles")
    print(f"shielded : {shielded.cycles:>12,} cycles "
          f"(+{overhead:.1f}% -- paper measured ~64% for SQLite)")
    print(f"exit rate: {exit_rate:,.0f}/s, "
          f"{runtime.redirect_bytes:,} bytes marshalled")

    print("\n-- confidentiality: the OS cannot read enclave memory --")
    setup = system.integration.enclaves[host.enclave_id]
    heap_vaddr = setup.layout["heap"][0]
    host.run(lambda libc: libc.poke(heap_vaddr, b"customer-PII"))
    attacker = system.kernel.compromise(system.boot_core)
    target_ppn = setup.region_ppns[heap_vaddr >> 12]
    try:
        attacker.read_phys(target_ppn << 12, 16)
        print("BREACH: kernel read enclave memory!")
    except CvmHalted as halt:
        print(f"kernel read attempt -> {halt}")

    print("\n-- secure demand paging --")
    system2, host2, _ = run_shielded(program)
    setup2 = system2.integration.enclaves[host2.enclave_id]
    heap2 = setup2.layout["heap"][0]
    host2.run(lambda libc: libc.poke(heap2, b"swap-me-safely"))
    system2.integration.evict_enclave_page(system2.boot_core,
                                           host2.enclave_id, heap2)
    back = host2.run(lambda libc: libc.peek(heap2, 14))
    print(f"page swapped out (encrypted) and back: {back!r}")
    system2.integration.evict_enclave_page(system2.boot_core,
                                           host2.enclave_id, heap2)
    vpn = heap2 >> 12
    ciphertext, tag = setup2.swap_store[vpn]
    setup2.swap_store[vpn] = (b"\x00" * len(ciphertext), tag)
    try:
        host2.run(lambda libc: libc.peek(heap2, 4))
        print("BREACH: corrupted swap blob accepted!")
    except SecurityViolation as rejected:
        print(f"corrupted swap blob -> rejected ({rejected})")


if __name__ == "__main__":
    main()
