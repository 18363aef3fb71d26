"""Cross-cutting property tests over the protection substrate."""

from hypothesis import given, settings, strategies as st

from repro.errors import CvmHalted, KernelError
from repro.hw import SevSnpMachine
from repro.hw.pagetable import GuestPageTable
from repro.hw.rmp import Access


class TestPageTableProperties:
    @given(st.lists(st.tuples(st.sampled_from(["map", "unmap"]),
                              st.integers(0, 31), st.integers(1, 63)),
                    max_size=60))
    def test_translation_matches_shadow_model(self, ops):
        """The page table agrees with a plain-dict shadow under random
        map/unmap sequences (including window-overriding unmaps)."""
        table = GuestPageTable(0x40)
        shadow: dict[int, int] = {}
        for op, vpn, ppn in ops:
            if op == "map":
                table.map(vpn, ppn)
                shadow[vpn] = ppn
            else:
                table.unmap(vpn)
                shadow.pop(vpn, None)
        for vpn in range(32):
            if vpn in shadow:
                assert table.entry(vpn).ppn == shadow[vpn]
            else:
                assert table.entry(vpn) is None


class TestVmplLattice:
    @settings(max_examples=25, deadline=None)
    @given(grants=st.dictionaries(
        st.integers(1, 3),
        st.sampled_from([Access.NONE, Access.READ, Access.rw(),
                         Access.all()]),
        min_size=0, max_size=3))
    def test_access_never_exceeds_grant(self, grants):
        """For any permission assignment, a VMPL can perform exactly the
        granted accesses -- never more (monotonic security lattice)."""
        machine = SevSnpMachine(memory_bytes=4 * 1024 * 1024,
                                num_cores=1)
        machine.rmp.bulk_assign_validate(machine.num_pages)
        ppn = 5
        for vmpl, perms in grants.items():
            machine.rmp.rmpadjust(executing_vmpl=0, ppn=ppn,
                                  target_vmpl=vmpl, perms=perms)
        for vmpl in range(4):
            granted = Access.all() if vmpl == 0 else \
                grants.get(vmpl, Access.NONE)
            for kind in (Access.READ, Access.WRITE, Access.UEXEC,
                         Access.SEXEC):
                allowed = bool(granted & kind)
                ent = machine.rmp.peek(ppn)
                assert ent.allows(vmpl, kind) == allowed or vmpl == 0


class TestFilesystemProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["create", "unlink", "mkdir", "rmdir"]),
        st.sampled_from(["a", "b", "c", "d"])), max_size=40))
    def test_namespace_matches_shadow_model(self, ops):
        from repro.kernel.fs import FileSystem, InodeType
        fs = FileSystem()
        fs.mkdir("/tmp")
        shadow: dict[str, str] = {}
        for op, name in ops:
            path = f"/tmp/{name}"
            try:
                if op == "create":
                    fs.create(path, exclusive=True)
                    expect_ok = name not in shadow
                    shadow[name] = "file"
                elif op == "unlink":
                    fs.unlink(path)
                    expect_ok = shadow.get(name) == "file"
                    shadow.pop(name, None)
                elif op == "mkdir":
                    fs.mkdir(path)
                    expect_ok = name not in shadow
                    shadow[name] = "dir"
                else:
                    fs.rmdir(path)
                    expect_ok = shadow.get(name) == "dir"
                    shadow.pop(name, None)
            except KernelError:
                continue
        assert sorted(shadow) == fs.listdir("/tmp")
        for name, kind in shadow.items():
            assert fs.resolve(f"/tmp/{name}").itype.value == kind


class TestProtectedRegionInvariant:
    def test_no_protected_page_is_domunt_accessible(self, veil):
        """Global invariant: after boot, *every* page VeilMon considers
        protected is unreachable from DomUNT for read and write."""
        rmp = veil.machine.rmp
        for ppn in veil.veilmon.protected_ppns:
            ent = rmp.peek(ppn)
            if ent.shared:
                continue
            assert not ent.allows(3, Access.READ), hex(ppn)
            assert not ent.allows(3, Access.WRITE), hex(ppn)

    def test_invariant_survives_service_activity(self, veil):
        """The invariant still holds after exercising all services."""
        from repro.core import module_signing_key
        from repro.enclave import EnclaveHost, build_test_binary
        from repro.kernel.modules import build_module
        core = veil.boot_core
        veil.integration.activate_kci(core)
        veil.integration.load_module(core, build_module(
            "inv_mod", text_size=4096,
            signing_key=module_signing_key()))
        veil.integration.enable_protected_logging()
        host = EnclaveHost(veil, build_test_binary("inv", heap_pages=4))
        host.launch()
        host.run(lambda libc: libc.compute(1000))
        rmp = veil.machine.rmp
        for ppn in veil.veilmon.protected_ppns:
            ent = rmp.peek(ppn)
            if ent.shared:
                continue
            assert not ent.allows(3, Access.WRITE), hex(ppn)
        # Enclave pages too (they are protected post-finalize).
        setup = veil.integration.enclaves[host.enclave_id]
        for ppn in setup.region_ppns.values():
            assert not rmp.peek(ppn).allows(3, Access.READ)
