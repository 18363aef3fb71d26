"""Failure injection: misbehaving host components and resource exhaustion.

The hypervisor and devices are untrusted; these tests make them misbehave
in ways the section-8 attack suite doesn't cover (wrong resume targets,
corrupted replies, resource exhaustion) and check the guest either
detects the problem or fails stop -- never silently computes on bad state.
"""

import pytest

from repro.core import VeilConfig, boot_veil_system
from repro.hw import VMPL_ENC, VMPL_MON, VMPL_UNT
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import (AttestationError, CvmHalted, ReproError,
                          SdkError, SecurityViolation, SimulationError)
from repro.kernel.fs import O_CREAT, O_RDWR

CONFIG = VeilConfig(memory_bytes=32 * 1024 * 1024, num_cores=2,
                    log_storage_pages=64)


@pytest.fixture
def system():
    return boot_veil_system(CONFIG)


class TestHypervisorMisbehavior:
    def test_resume_wrong_vmsa_detected_by_monitor_path(self, system):
        """The hypervisor swaps the DomMON VMSA for the DomUNT one: the
        monitor body (running where VeilMon expected to) detects it is
        not at VMPL-0 and refuses to operate."""
        hv = system.hv
        mon_vmsa = hv.vmsas[(0, VMPL_MON)]
        hv.vmsas[(0, VMPL_MON)] = hv.vmsas[(0, VMPL_UNT)]
        try:
            with pytest.raises((SimulationError, CvmHalted)):
                system.gateway.call_monitor(system.boot_core,
                                            {"op": "ping"})
        finally:
            hv.vmsas[(0, VMPL_MON)] = mon_vmsa

    def test_hypervisor_drops_vmsa_registration(self, system):
        """The hypervisor 'forgets' the DomSER VMSA: switches fail stop
        rather than landing anywhere else."""
        del system.hv.vmsas[(0, 1)]
        with pytest.raises(CvmHalted):
            system.gateway.call_service(system.boot_core,
                                        {"op": "log_append",
                                         "record_hex": "00"})

    def test_forged_attestation_signature_detected(self, system):
        """The hypervisor tampers with the report in transit."""
        user = system.remote_user()
        reply = system.gateway.call_monitor(system.boot_core,
                                            {"op": "attest"})
        report = reply["report"]
        from repro.hv.attestation import AttestationReport
        tampered = AttestationReport(
            measurement=bytes.fromhex(report["measurement_hex"]),
            requester_vmpl=0,
            report_data=bytes.fromhex(report["report_data_hex"]),
            signature=bytes(len(report["signature_hex"]) // 2))
        with pytest.raises(AttestationError):
            user.verify(tampered)

    def test_console_device_errors_do_not_corrupt_kernel(self, system):
        """A device that raises mid-write leaves the kernel usable."""
        original = system.hv.console.write
        system.hv.console.write = \
            lambda data: (_ for _ in ()).throw(RuntimeError("dead uart"))
        core = system.boot_core
        proc = system.kernel.create_process("con")
        import repro.kernel.layout as layout
        buf = layout.USER_STACK_TOP - 4096
        core.regs.cr3, core.regs.cpl = proc.page_table.root_ppn, 3
        core.write(buf, b"x" * 2048)
        try:
            with pytest.raises(RuntimeError):
                for _ in range(3):
                    system.kernel.syscall(core, proc, "write", 1, buf,
                                          2048)
        finally:
            system.hv.console.write = original
        fd = system.kernel.syscall(core, proc, "open", "/tmp/ok",
                                   O_CREAT | O_RDWR)
        assert system.kernel.syscall(core, proc, "close", fd) == 0


class TestResourceExhaustion:
    def test_out_of_frames_is_clean_memoryerror(self):
        tiny = boot_veil_system(VeilConfig(
            memory_bytes=16 * 1024 * 1024, num_cores=2,
            log_storage_pages=16))
        with pytest.raises(MemoryError):
            while True:
                tiny.kernel.mm.alloc_frame("hog")

    def test_monitor_heap_exhaustion_rejects_enclaves(self, system):
        """Enclave finalize needs protected heap pages for the cloned
        page table; exhaustion denies cleanly."""
        system.veilmon._heap_cursor = len(system.veilmon._heap_ppns)
        host = EnclaveHost(system, build_test_binary("late",
                                                     heap_pages=4))
        with pytest.raises(ReproError):
            host.launch()

    def test_enclave_heap_exhaustion_is_sdk_error(self, system):
        host = EnclaveHost(system, build_test_binary("small-heap",
                                                     heap_pages=2))
        host.launch()

        def hog(libc):
            while True:
                libc.malloc(4096)

        with pytest.raises(SdkError):
            host.run(hog)

    def test_staging_exhaustion_is_sdk_error(self, system):
        host = EnclaveHost(system, build_test_binary("tiny-staging",
                                                     heap_pages=24),
                           shared_pages=1)
        host.launch()

        def big_write(libc):
            fd = libc.open("/tmp/big", O_CREAT | O_RDWR)
            libc.write(fd, b"x" * 8192)     # > 1 staging page

        with pytest.raises(SdkError):
            host.run(big_write)

    def test_log_overflow_never_overwrites(self, system):
        system.integration.enable_protected_logging()
        service = system.log
        service.capacity_bytes = 2048
        core = system.boot_core
        proc = system.kernel.create_process("noisy")
        for index in range(30):
            fd = system.kernel.syscall(core, proc, "open",
                                       f"/tmp/o{index}",
                                       O_CREAT | O_RDWR)
            system.kernel.syscall(core, proc, "close", fd)
        first_offset = service._index[0][0] if service._index else None
        assert service.dropped > 0
        # Earliest record untouched by later (dropped) appends.
        assert first_offset == 4


class TestSchedulingFailures:
    def test_enclave_on_missing_core_rejected(self, system):
        host = EnclaveHost(system, build_test_binary("core9",
                                                     heap_pages=4))
        host.launch()
        with pytest.raises(SecurityViolation):
            system.gateway.call_service(system.boot_core, {
                "op": "enc_add_thread", "enclave_id": host.enclave_id,
                "vcpu_id": 9, "ghcb_ppn": 0, "ghcb_vaddr": 0,
                "entry_rip": 0})
