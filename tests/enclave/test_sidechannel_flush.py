"""Section-10 side-channel mitigation: WBINVD on enclave exits."""

import pytest

from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import GeneralProtectionFault, SecurityViolation
from repro.kernel.fs import O_CREAT, O_RDWR


@pytest.fixture
def host(veil):
    host = EnclaveHost(veil, build_test_binary("sc", heap_pages=8))
    host.launch()
    return host


class TestResidueModel:
    def test_enclave_execution_leaves_residue(self, host, veil):
        host.run(lambda libc: libc.compute(1000))
        tag = f"enclave-{host.enclave_id}"
        assert tag in veil.boot_core.microarch_residue

    def test_wbinvd_requires_cpl0(self, veil):
        core = veil.boot_core
        core.regs.cpl = 3
        with pytest.raises(GeneralProtectionFault):
            core.wbinvd()
        core.regs.cpl = 0

    def test_wbinvd_clears_and_charges(self, veil):
        core = veil.boot_core
        core.microarch_residue.add("probe")
        before = veil.machine.ledger.category("wbinvd")
        with veil.kernel.kernel_context(core):
            core.wbinvd()
        assert not core.microarch_residue
        assert veil.machine.ledger.category("wbinvd") - before == \
            veil.machine.cost.wbinvd


class TestFlushOnExit:
    def test_flush_scrubs_footprint_before_untrusted_code(self, host,
                                                          veil):
        def body(libc):
            libc.enable_sidechannel_flush()
            libc.compute(1000)

        host.run(body)
        tag = f"enclave-{host.enclave_id}"
        # The attacker probing after exit sees nothing.
        assert tag not in veil.boot_core.microarch_residue

    def test_without_flush_attacker_observes_residue(self, host, veil):
        host.run(lambda libc: libc.compute(1000))
        tag = f"enclave-{host.enclave_id}"
        assert tag in veil.boot_core.microarch_residue

    def test_flush_applies_to_syscall_exits_too(self, host, veil):
        def body(libc):
            libc.enable_sidechannel_flush()
            fd = libc.open("/tmp/sc", O_CREAT | O_RDWR)
            libc.write(fd, b"x")
            libc.close(fd)

        host.run(body)
        assert f"enclave-{host.enclave_id}" not in \
            veil.boot_core.microarch_residue

    def test_flush_costs_extra_switches_and_wbinvd(self, host, veil):
        def measure(enable):
            def body(libc):
                if enable:
                    libc.enable_sidechannel_flush()
                fd = libc.open("/tmp/cost", O_CREAT | O_RDWR)
                for _ in range(8):
                    libc.write(fd, b"y" * 16)
                libc.close(fd)
            before = veil.machine.ledger.total
            host.run(body)
            host.runtime.flush_on_exit = False
            return veil.machine.ledger.total - before

        plain = measure(False)
        flushed = measure(True)
        assert flushed > plain + 8 * veil.machine.cost.wbinvd

    def test_os_cannot_request_flush_for_enclave(self, host, veil):
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_flush_cpu_state",
                "enclave_id": host.enclave_id})
