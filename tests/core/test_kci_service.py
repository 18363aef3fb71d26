"""Integration tests: VeilS-KCI (kernel code integrity)."""

import pytest

from repro.core import module_signing_key
from repro.hw import VMPL_UNT
from repro.errors import CvmHalted, SecurityViolation
from repro.hw.rmp import Access
from repro.kernel import layout
from repro.kernel.modules import build_module

KEY = module_signing_key()


@pytest.fixture
def kci_active(veil):
    veil.integration.activate_kci(veil.boot_core)
    return veil


class TestActivation:
    def test_wx_applied_to_kernel_text(self, kci_active):
        rmp = kci_active.machine.rmp
        for ppn in kci_active.kernel.text_ppns[:8]:
            ent = rmp.peek(ppn)
            assert ent.allows(VMPL_UNT, Access.READ | Access.SEXEC)
            assert not ent.allows(VMPL_UNT, Access.WRITE)

    def test_no_sexec_on_kernel_data(self, kci_active):
        rmp = kci_active.machine.rmp
        for ppn in kci_active.kernel.data_ppns[:8]:
            ent = rmp.peek(ppn)
            assert ent.allows(VMPL_UNT, Access.rw())
            assert not ent.allows(VMPL_UNT, Access.SEXEC)

    def test_symbol_table_deep_copied(self, kci_active):
        service = kci_active.kci
        assert service.symbol_table == kci_active.kernel.symbol_table
        # Mutating the kernel's copy post-activation has no effect.
        kci_active.kernel.symbol_table["ksym_0"] = 0xdead
        assert service.symbol_table["ksym_0"] != 0xdead

    def test_kernel_text_write_halts_after_activation(self, kci_active):
        attacker = kci_active.kernel.compromise(kci_active.boot_core)
        with pytest.raises(CvmHalted):
            attacker.write_virt(layout.KERNEL_TEXT_BASE, b"\xcc")

    def test_kernel_can_still_fetch_own_text(self, kci_active):
        core = kci_active.boot_core
        with kci_active.kernel.kernel_context(core):
            assert core.fetch(layout.KERNEL_TEXT_BASE)


class TestProtectedModuleLoad:
    def test_load_installs_and_relocates(self, kci_active):
        image = build_module("sec_mod", text_size=4096,
                             relocation_count=2, signing_key=KEY)
        core = kci_active.boot_core
        module = kci_active.integration.load_module(core, image)
        assert module.loaded_by == "veils-kci"
        with kci_active.kernel.kernel_context(core):
            resolved = core.read(module.vaddr +
                                 image.relocations[0].offset, 8)
        expected = kci_active.kci.symbol_table[
            image.relocations[0].symbol]
        assert int.from_bytes(resolved, "little") == expected

    def test_loaded_text_write_protected_by_vmpl(self, kci_active):
        image = build_module("wp_mod", text_size=4096, signing_key=KEY)
        core = kci_active.boot_core
        module = kci_active.integration.load_module(core, image)
        attacker = kci_active.kernel.compromise(core)
        attacker.disable_pt_write_protection(module.vaddr)
        with pytest.raises(CvmHalted):
            attacker.write_virt(module.vaddr, b"\xcc" * 8)

    def test_module_data_pages_not_sexec(self, kci_active):
        image = build_module("bss_mod", text_size=4096,
                             extra_data_pages=2, signing_key=KEY)
        core = kci_active.boot_core
        module = kci_active.integration.load_module(core, image)
        data_ppn = module.ppns[-1]
        ent = kci_active.machine.rmp.peek(data_ppn)
        assert ent.allows(VMPL_UNT, Access.rw())
        assert not ent.allows(VMPL_UNT, Access.SEXEC)

    def test_bad_signature_rejected(self, kci_active):
        image = build_module("forged_mod", text_size=4096,
                             signing_key=KEY)
        forged = type(image)(image.name, image.text + b"\x90",
                             image.relocations, image.signature)
        with pytest.raises(SecurityViolation):
            kci_active.integration.load_module(kci_active.boot_core,
                                               forged)

    def test_toctou_window_closed(self, kci_active):
        """Modifying the staging copy after the service has deep-copied
        does nothing: the installed text matches the verified bytes."""
        image = build_module("toctou_mod", text_size=4096,
                             relocation_count=0, signing_key=KEY)
        core = kci_active.boot_core
        module = kci_active.integration.load_module(core, image)
        with kci_active.kernel.kernel_context(core):
            installed = core.read(module.vaddr, 64)
        assert installed == image.text[:64]

    def test_unload_restores_permissions(self, kci_active):
        image = build_module("cycle_mod", text_size=4096,
                             signing_key=KEY)
        core = kci_active.boot_core
        module = kci_active.integration.load_module(core, image)
        ppn = module.ppns[0]
        kci_active.integration.unload_module(core, "cycle_mod")
        assert "cycle_mod" not in kci_active.kci.modules
        assert kci_active.machine.rmp.peek(ppn).allows(VMPL_UNT,
                                                       Access.all())

    def test_load_before_activation_rejected(self, veil):
        image = build_module("early_mod", text_size=4096,
                             signing_key=KEY)
        with pytest.raises(SecurityViolation):
            veil.integration.load_module(veil.boot_core, image)

    def test_duplicate_name_rejected(self, kci_active):
        image = build_module("once_mod", text_size=4096, signing_key=KEY)
        core = kci_active.boot_core
        kci_active.integration.load_module(core, image)
        from repro.errors import KernelError
        with pytest.raises(KernelError):
            kci_active.integration.load_module(core, image)

    def test_staging_pointer_to_protected_memory_rejected(self,
                                                          kci_active):
        """Malicious request path: staging ppns into monitor memory."""
        target = kci_active.veilmon.image_ppns[0]
        with pytest.raises(SecurityViolation):
            kci_active.gateway.call_service(kci_active.boot_core, {
                "op": "kci_load_module", "name": "evil", "text_len": 16,
                "staging_ppns": [target], "relocations": [],
                "signature_hex": "", "vaddr": 0, "region_ppns": [target]})
