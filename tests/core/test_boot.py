"""Integration tests: Veil and native boot flows."""

import pytest

from repro.core import (VeilConfig, boot_native_system, boot_veil_system,
                        build_boot_image, module_signing_key)
from repro.hw import VMPL_UNT
from repro.crypto import sha256


class TestVeilBoot:
    def test_boot_image_deterministic(self):
        config = VeilConfig()
        fingerprint = module_signing_key().public.fingerprint()
        a = build_boot_image(config, trusted_key_fingerprint=fingerprint)
        b = build_boot_image(config, trusted_key_fingerprint=fingerprint)
        assert a == b

    def test_launch_measurement_matches_image(self, veil):
        assert veil.hv.psp.launch_measurement == \
            sha256(veil.boot_image)
        assert veil.expected_measurement() == sha256(veil.boot_image)

    def test_all_services_registered(self, veil):
        assert set(veil.veilmon.services) == {"veils-kci", "veils-enc",
                                              "veils-log"}

    def test_delegation_hooks_installed(self, veil):
        assert veil.kernel.mm.pvalidate_hook is not None
        assert veil.kernel.vcpu_boot_hook is not None

    def test_boot_all_cores(self):
        system = boot_veil_system(VeilConfig(
            memory_bytes=32 * 1024 * 1024, num_cores=2,
            log_storage_pages=64, boot_all_cores=True))
        for core in system.machine.cores:
            assert core.instance is not None
            assert core.instance.vmpl == VMPL_UNT

    def test_boot_cost_scales_with_memory(self):
        small = boot_veil_system(VeilConfig(
            memory_bytes=16 * 1024 * 1024, num_cores=2,
            log_storage_pages=64))
        large = boot_veil_system(VeilConfig(
            memory_bytes=64 * 1024 * 1024, num_cores=2,
            log_storage_pages=64))
        ratio = large.veil_boot_delta.category("rmpadjust") / \
            small.veil_boot_delta.category("rmpadjust")
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_veil_kernel_behaves_like_native(self, veil, native):
        """The same syscall sequence returns identical results under
        both boots (compatibility, section 5.3)."""
        from repro.kernel.fs import O_CREAT, O_RDWR
        import repro.kernel.layout as layout
        results = []
        for system in (veil, native):
            kernel, core = system.kernel, system.boot_core
            proc = kernel.create_process("compat")
            fd = kernel.syscall(core, proc, "open", "/tmp/compat",
                                O_CREAT | O_RDWR)
            buf = layout.USER_STACK_TOP - 4096
            core.regs.cr3, core.regs.cpl = proc.page_table.root_ppn, 3
            core.write(buf, b"identical")
            wrote = kernel.syscall(core, proc, "write", fd, buf, 9)
            stat = kernel.syscall(core, proc, "stat", "/tmp/compat")
            results.append((fd, wrote, stat["size"]))
        assert results[0] == results[1]


class TestNativeBoot:
    def test_kernel_at_vmpl0(self, native):
        assert native.boot_core.vmpl == 0

    def test_no_veil_components(self, native):
        assert not hasattr(native, "veilmon")

    def test_memory_validated(self, native):
        ent = native.machine.rmp.peek(1000)
        assert ent.assigned and ent.validated
