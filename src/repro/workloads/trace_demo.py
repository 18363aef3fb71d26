"""Deterministic demo workloads for ``repro trace``.

Each workload boots a fresh Veil CVM with a caller-supplied tracer and
drives a fixed request sequence through the stack.  Because the tracer
is clocked by the machine's cycle ledger (virtual time, not wall time),
two runs of the same workload produce byte-identical trace exports --
``tests/trace/test_determinism.py`` pins that invariant.
"""

from __future__ import annotations

import typing

from ..core import VeilConfig, boot_veil_system, module_signing_key
from ..kernel.fs import O_CREAT, O_RDWR
from ..kernel.modules import build_module
from ..trace import Tracer

if typing.TYPE_CHECKING:
    from ..core.boot import VeilSystem


def _boot(tracer: Tracer) -> "VeilSystem":
    return boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64, tracer=tracer))


def _run_switch(tracer: Tracer) -> "VeilSystem":
    """Domain-switch round trips: DomUNT -> DomMON ping and back."""
    system = _boot(tracer)
    core = system.boot_core
    for _ in range(16):
        system.gateway.call_monitor(core, {"op": "ping"})
    return system


def _run_syscalls(tracer: Tracer) -> "VeilSystem":
    """Audited syscalls through the kernel with VeilS-LOG enabled."""
    system = _boot(tracer)
    core = system.boot_core
    system.integration.enable_protected_logging()
    proc = system.kernel.create_process("trace-demo")
    kernel = system.kernel
    for i in range(4):
        fd = kernel.syscall(core, proc, "open", f"/tmp/trace-{i}",
                            O_CREAT | O_RDWR)
        kernel.syscall(core, proc, "close", fd)
        kernel.syscall(core, proc, "getpid")
    return system


def _run_quickstart(tracer: Tracer) -> "VeilSystem":
    """The quickstart tour: KCI + LOG + a small enclave program."""
    from ..enclave import EnclaveHost, build_test_binary
    system = _boot(tracer)
    core = system.boot_core
    system.integration.activate_kci(core)
    image = build_module("trace_mod", text_size=4728,
                         signing_key=module_signing_key())
    system.integration.load_module(core, image)
    system.integration.enable_protected_logging()
    proc = system.kernel.create_process("trace-quickstart")
    fd = system.kernel.syscall(core, proc, "open", "/tmp/audited",
                               O_CREAT | O_RDWR)
    system.kernel.syscall(core, proc, "close", fd)

    host = EnclaveHost(system, build_test_binary("trace-enclave",
                                                 heap_pages=8))
    host.launch()

    def enclave_main(libc):
        fd = libc.open("/tmp/secret.txt", O_CREAT | O_RDWR)
        libc.write(fd, b"traced inside the enclave")
        libc.lseek(fd, 0, 0)
        data = libc.read(fd, 64)
        libc.close(fd)
        libc.compute(100_000)
        return data

    host.run(enclave_main)
    host.destroy()
    return system


#: name -> (runner, description) for the CLI and tests.
TRACE_WORKLOADS: dict = {
    "switch": (_run_switch,
               "16 DomUNT->DomMON ping round trips"),
    "syscalls": (_run_syscalls,
                 "audited open/close/getpid loop under VeilS-LOG"),
    "quickstart": (_run_quickstart,
                   "KCI + protected logging + one enclave program"),
}


def run_trace_workload_system(name: str, *, tracer: Tracer | None = None
                              ) -> "tuple[Tracer, VeilSystem]":
    """Run one named workload under a tracer; return the tracer and the
    booted system.

    The CLI uses the system handle to publish TLB counters *after* the
    Chrome trace export: the export embeds the metrics registry, and the
    exported trace holds model state only, so the cache counters must not
    leak into it (the ``trace syscalls --out`` golden digest pins this).
    """
    try:
        runner, _desc = TRACE_WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace workload {name!r}; choose from "
            f"{', '.join(sorted(TRACE_WORKLOADS))}") from None
    tracer = tracer or Tracer()
    system = runner(tracer)
    return tracer, system
