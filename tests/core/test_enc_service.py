"""Integration tests: VeilS-ENC (shielded execution)."""

import pytest

from repro.hw import VMPL_ENC, VMPL_UNT
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import CvmHalted, SecurityViolation
from repro.hw.rmp import Access
from repro.kernel import layout


@pytest.fixture
def hosted(veil):
    host = EnclaveHost(veil, build_test_binary("svc-test", heap_pages=6))
    host.launch()
    return veil, host


class TestFinalize:
    def test_measurement_matches_user_computation(self, hosted):
        veil, host = hosted
        expected = host.binary.expected_measurement(layout.ENCLAVE_BASE)
        assert host.measurement_hex == expected

    def test_enclave_pages_revoked_from_domunt(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        rmp = veil.machine.rmp
        for ppn in list(setup.region_ppns.values())[:8]:
            assert not rmp.peek(ppn).allows(VMPL_UNT, Access.READ)

    def test_code_pages_executable_at_domenc(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        code_vpn = setup.layout["code"][0] >> 12
        ppn = setup.region_ppns[code_vpn]
        ent = veil.machine.rmp.peek(ppn)
        assert ent.allows(VMPL_ENC, Access.READ | Access.UEXEC)
        assert not ent.allows(VMPL_ENC, Access.WRITE)

    def test_data_pages_rw_not_exec_at_domenc(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        data_vpn = setup.layout["data"][0] >> 12
        ppn = setup.region_ppns[data_vpn]
        ent = veil.machine.rmp.peek(ppn)
        assert ent.allows(VMPL_ENC, Access.rw())
        assert not ent.allows(VMPL_ENC, Access.UEXEC)

    def test_protected_page_table_has_no_kernel_mappings(self, hosted):
        veil, host = hosted
        record = veil.enc.enclaves[host.enclave_id]
        assert record.page_table.entry(
            layout.vpn(layout.KERNEL_TEXT_BASE)) is None

    def test_one_to_one_invariant_rejects_duplicate_vpn(self, veil):
        frame_a = veil.kernel.mm.alloc_frame("x")
        frame_b = veil.kernel.mm.alloc_frame("y")
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_finalize", "pid": 1, "vcpu_id": 0,
                "base_vaddr": layout.ENCLAVE_BASE, "entry_rip": 0,
                "pages": [[100, frame_a, True, False],
                          [100, frame_b, True, False]],
                "shared_pages": [], "ghcb_ppn": 0, "ghcb_vaddr": 0,
                "idcb_ppn": frame_a})

    def test_one_to_one_invariant_rejects_duplicate_ppn(self, veil):
        frame = veil.kernel.mm.alloc_frame("x")
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_finalize", "pid": 1, "vcpu_id": 0,
                "base_vaddr": layout.ENCLAVE_BASE, "entry_rip": 0,
                "pages": [[100, frame, True, False],
                          [101, frame, True, False]],
                "shared_pages": [], "ghcb_ppn": 0, "ghcb_vaddr": 0,
                "idcb_ppn": frame})

    def test_layout_with_protected_pages_rejected(self, veil):
        target = veil.veilmon.image_ppns[0]
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_finalize", "pid": 1, "vcpu_id": 0,
                "base_vaddr": layout.ENCLAVE_BASE, "entry_rip": 0,
                "pages": [[100, target, True, False]],
                "shared_pages": [], "ghcb_ppn": 0, "ghcb_vaddr": 0,
                "idcb_ppn": target})

    def test_two_enclaves_disjoint_frames(self, veil):
        first = EnclaveHost(veil, build_test_binary("first",
                                                    heap_pages=4))
        second = EnclaveHost(veil, build_test_binary("second",
                                                     heap_pages=4))
        first.launch()
        second.launch()
        a = set(veil.integration.enclaves[
            first.enclave_id].region_ppns.values())
        b = set(veil.integration.enclaves[
            second.enclave_id].region_ppns.values())
        assert not a & b


class TestDemandPaging:
    def test_evict_scrubs_and_releases_frame(self, hosted):
        veil, host = hosted
        # Put a secret into enclave heap first.
        heap_vaddr = veil.integration.enclaves[
            host.enclave_id].layout["heap"][0]
        host.run(lambda libc: libc.poke(heap_vaddr + 64, b"SECRET"))
        setup = veil.integration.enclaves[host.enclave_id]
        ppn = setup.region_ppns[heap_vaddr >> 12]
        veil.integration.evict_enclave_page(veil.boot_core,
                                            host.enclave_id, heap_vaddr)
        # Frame returned to the OS: readable, and scrubbed.
        attacker = veil.kernel.compromise(veil.boot_core)
        leaked = attacker.read_phys(ppn << 12, 4096)
        assert b"SECRET" not in leaked
        assert leaked == b"\x00" * 4096

    def test_swap_roundtrip_restores_content(self, hosted):
        veil, host = hosted
        heap_vaddr = veil.integration.enclaves[
            host.enclave_id].layout["heap"][0]
        host.run(lambda libc: libc.poke(heap_vaddr + 8, b"persist-me"))
        veil.integration.evict_enclave_page(veil.boot_core,
                                            host.enclave_id, heap_vaddr)
        got = host.run(lambda libc: libc.peek(heap_vaddr + 8, 10))
        assert got == b"persist-me"
        assert host.runtime.fault_swapins == 1

    def test_corrupted_swap_blob_rejected(self, hosted):
        veil, host = hosted
        heap_vaddr = veil.integration.enclaves[
            host.enclave_id].layout["heap"][0]
        host.run(lambda libc: libc.poke(heap_vaddr, b"data"))
        veil.integration.evict_enclave_page(veil.boot_core,
                                            host.enclave_id, heap_vaddr)
        setup = veil.integration.enclaves[host.enclave_id]
        vpn = heap_vaddr >> 12
        ciphertext, tag = setup.swap_store[vpn]
        setup.swap_store[vpn] = (b"\x00" * len(ciphertext), tag)
        with pytest.raises(SecurityViolation):
            host.run(lambda libc: libc.peek(heap_vaddr, 4))

    def test_idcb_page_cannot_be_evicted(self, hosted):
        """The enclave<->service IDCB must stay resident; evicting it
        would route trusted communication through an OS-owned frame."""
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        idcb_vaddr = setup.layout["idcb"][0]
        with pytest.raises(SecurityViolation):
            veil.integration.evict_enclave_page(veil.boot_core,
                                                host.enclave_id,
                                                idcb_vaddr)

    def test_stale_swap_replay_rejected(self, hosted):
        """Freshness counters: replaying an *older* evicted version of
        the same page fails authentication."""
        veil, host = hosted
        heap_vaddr = veil.integration.enclaves[
            host.enclave_id].layout["heap"][0]
        vpn = heap_vaddr >> 12
        setup = veil.integration.enclaves[host.enclave_id]
        host.run(lambda libc: libc.poke(heap_vaddr, b"version-1"))
        veil.integration.evict_enclave_page(veil.boot_core,
                                            host.enclave_id, heap_vaddr)
        stale = setup.swap_store[vpn]
        host.run(lambda libc: libc.peek(heap_vaddr, 4))       # swap in
        host.run(lambda libc: libc.poke(heap_vaddr, b"version-2"))
        veil.integration.evict_enclave_page(veil.boot_core,
                                            host.enclave_id, heap_vaddr)
        setup.swap_store[vpn] = stale                         # replay!
        with pytest.raises(SecurityViolation):
            host.run(lambda libc: libc.peek(heap_vaddr, 4))


class TestPermissionChanges:
    def test_os_mprotect_on_enclave_region_refused(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        proc = setup.proc
        with pytest.raises(SecurityViolation):
            veil.kernel.syscall(veil.boot_core, proc, "mprotect",
                                setup.base_vaddr, 4096, 1)

    def test_os_mprotect_elsewhere_synced(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        record = veil.enc.enclaves[host.enclave_id]
        # The shared staging region is OS-managed and mapped in both.
        veil.kernel.syscall(veil.boot_core, setup.proc, "mprotect",
                            setup.shared_vaddr, 4096, 1)  # PROT_READ
        entry = record.page_table.entry(setup.shared_vaddr >> 12)
        assert entry is not None and not entry.writable

    def test_enclave_self_mprotect(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        stack_vaddr = setup.layout["stack"][0]
        reply = host.run(lambda libc: libc.mprotect_enclave(
            stack_vaddr, 1, writable=False, executable=False))
        assert reply["status"] == "ok"
        record = veil.enc.enclaves[host.enclave_id]
        assert not record.page_table.entry(stack_vaddr >> 12).writable

    def test_enclave_wx_refused(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        stack_vaddr = setup.layout["stack"][0]
        with pytest.raises(SecurityViolation):
            host.run(lambda libc: libc.mprotect_enclave(
                stack_vaddr, 1, writable=True, executable=True))


class TestDestroy:
    def test_destroy_scrubs_and_releases(self, hosted):
        veil, host = hosted
        setup = veil.integration.enclaves[host.enclave_id]
        data_vaddr = setup.layout["data"][0]
        data_ppn = setup.region_ppns[data_vaddr >> 12]
        host.run(lambda libc: libc.poke(data_vaddr, b"TOPSECRET"))
        host.destroy()
        attacker = veil.kernel.compromise(veil.boot_core)
        contents = attacker.read_phys(data_ppn << 12, 4096)
        assert b"TOPSECRET" not in contents

    def test_destroyed_enclave_rejects_requests(self, hosted):
        veil, host = hosted
        enclave_id = host.enclave_id
        host.destroy()
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_schedule", "enclave_id": enclave_id})
