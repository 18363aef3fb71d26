"""veil-turbo: software TLB + RMP verdict cache invalidation edges.

Every test here pins an *architectural* invalidation rule: a cached
translation or RMP verdict must never outlive the state change that made
it stale.  The cache is allowed to make the simulator faster, never to
make it wrong.
"""

import pytest

from repro.errors import CvmHalted
from repro.hw import SevSnpMachine
from repro.hw.memory import page_base
from repro.hw.pagetable import PageFault
from repro.hw.rmp import VMPL_MON, VMPL_UNT, Access
from repro.hw.vmsa import RegisterFile, Vmsa
from repro.hv import Hypervisor
from repro.kernel.layout import direct_map_vaddr


def machine_with_boot_core():
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=2)
    hv = Hypervisor(machine)
    vmsa = hv.launch(b"test-image")
    core = machine.core(0)
    core.hw_enter(vmsa)
    machine.rmp.bulk_assign_validate(machine.num_pages)
    for ppn in machine.vmsa_objects:
        machine.rmp.entry(ppn).vmsa = True
    return machine, core


def mapped_frame(machine, core, vpn=0x10):
    """Map ``vpn`` to a fresh frame on a fresh table; aim cr3 at it."""
    table = machine.create_page_table()
    frame = machine.frames.alloc()
    table.map(vpn, frame)
    core.regs.cr3 = table.root_ppn
    core.regs.cpl = 0
    return table, frame


def enter_vmpl3(machine, table):
    """Build and enter a VMPL-3 instance on core 1."""
    vmsa_ppn = machine.frames.alloc()
    machine.rmp.entry(vmsa_ppn).vmsa = True
    vmsa = Vmsa(vcpu_id=1, vmpl=3, ppn=vmsa_ppn,
                regs=RegisterFile(cr3=table.root_ppn))
    core1 = machine.core(1)
    core1.hw_enter(vmsa)
    return core1


class TestCachedHits:
    def test_repeated_access_hits_the_cache(self):
        machine, core = machine_with_boot_core()
        mapped_frame(machine, core)
        core.write(0x10_000, b"hot")
        for _ in range(8):
            assert core.read(0x10_000, 3) == b"hot"
        stats = core.tlb.stats
        assert stats.hits > 0
        assert stats.rmp_hits > 0
        assert stats.hit_rate > 0.5


class TestRmpInvalidation:
    def test_rmpadjust_revoke_faults_next_access(self):
        machine, core = machine_with_boot_core()
        table, frame = mapped_frame(machine, core)
        machine.rmp.rmpadjust(executing_vmpl=0, ppn=frame,
                              target_vmpl=3, perms=Access.rw())
        core1 = enter_vmpl3(machine, table)
        core1.regs.cpl = 0
        assert core1.read(0x10_000, 4) == b"\x00" * 4
        assert core1.read(0x10_000, 4) == b"\x00" * 4   # cached verdict
        assert core1.tlb.stats.rmp_hits > 0
        # Revoke from VMPL-0: the cached allow-verdict must die with it.
        machine.rmp.rmpadjust(executing_vmpl=0, ppn=frame,
                              target_vmpl=3, perms=Access.NONE)
        with pytest.raises(CvmHalted):
            core1.read(0x10_000, 4)
        assert machine.halted

    def test_direct_entry_mutation_faults_next_access(self):
        # Rmp.entry() hands out a mutable entry, so it bumps the
        # generation pessimistically -- even a direct perms[] poke (the
        # test-suite idiom) invalidates cached verdicts.
        machine, core = machine_with_boot_core()
        table, frame = mapped_frame(machine, core)
        machine.rmp.rmpadjust(executing_vmpl=0, ppn=frame,
                              target_vmpl=3, perms=Access.rw())
        core1 = enter_vmpl3(machine, table)
        core1.regs.cpl = 0
        assert core1.read(0x10_000, 1) == b"\x00"
        machine.rmp.entry(frame).perms[3] = Access.NONE
        with pytest.raises(CvmHalted):
            core1.read(0x10_000, 1)

    def test_pvalidate_toggle_faults_next_access(self):
        machine, core = machine_with_boot_core()
        _table, frame = mapped_frame(machine, core)
        core.write(0x10_000, b"ok")
        assert core.read(0x10_000, 2) == b"ok"
        machine.rmp.pvalidate(executing_vmpl=0, ppn=frame,
                              validate=False)
        with pytest.raises(CvmHalted):
            core.read(0x10_000, 2)


class TestTableInvalidation:
    def test_protect_readonly_faults_next_cached_write(self):
        machine, core = machine_with_boot_core()
        table, _frame = mapped_frame(machine, core)
        core.write(0x10_000, b"rw")
        core.write(0x10_000, b"rw")                     # cached pte
        table.protect(0x10, writable=False)
        with pytest.raises(PageFault):
            core.write(0x10_000, b"nope")
        assert core.read(0x10_000, 2) == b"rw"          # reads still fine

    def test_unmap_faults_next_cached_read(self):
        machine, core = machine_with_boot_core()
        table, _frame = mapped_frame(machine, core)
        core.write(0x10_000, b"gone")
        assert core.read(0x10_000, 4) == b"gone"
        table.unmap(0x10)
        with pytest.raises(PageFault):
            core.read(0x10_000, 4)

    def test_map_after_caching_is_visible(self):
        machine, core = machine_with_boot_core()
        table, _frame = mapped_frame(machine, core)
        core.write(0x10_000, b"a")                      # warm the view
        with pytest.raises(PageFault):
            core.read(0x20_000, 1)
        frame2 = machine.frames.alloc()
        table.map(0x20, frame2)
        core.write(0x20_000, b"b")
        assert core.read(0x20_000, 1) == b"b"

    def test_cloned_table_shares_no_cached_state(self):
        machine, core = machine_with_boot_core()
        table, frame = mapped_frame(machine, core)
        core.write(0x10_000, b"orig")
        assert core.read(0x10_000, 4) == b"orig"        # cached under root A
        clone_root = machine.frames.alloc("clone-root")
        clone = table.clone(clone_root)
        machine.register_page_table(clone)
        core.regs.cr3 = clone_root
        assert core.read(0x10_000, 4) == b"orig"        # same frame, new view
        clone.unmap(0x10)                               # diverge the clone
        with pytest.raises(PageFault):
            core.read(0x10_000, 4)
        core.regs.cr3 = table.root_ppn                  # original unaffected
        assert core.read(0x10_000, 4) == b"orig"

    def test_root_frame_reuse_cannot_serve_stale_entries(self):
        from repro.hw.pagetable import GuestPageTable
        machine, core = machine_with_boot_core()
        table, frame = mapped_frame(machine, core)
        core.write(0x10_000, b"old!")
        assert core.read(0x10_000, 4) == b"old!"
        # A *different* table object registered under the same root must
        # not inherit the old table's cached translations.
        other_frame = machine.frames.alloc()
        replacement = GuestPageTable(table.root_ppn, cost=machine.cost,
                                     ledger=machine.ledger)
        replacement.map(0x10, other_frame)
        machine.register_page_table(replacement)
        assert core.read(0x10_000, 4) == b"\x00" * 4    # new frame, zeroed


class TestFlushes:
    def test_world_switch_keeps_cache(self):
        machine, core = machine_with_boot_core()
        mapped_frame(machine, core)
        core.write(0x10_000, b"x")
        assert core.read(0x10_000, 1) == b"x"           # warm the verdict
        stats = core.tlb.stats
        flushes = stats.flushes
        vmsa = core.hw_exit()
        core.hw_enter(vmsa)
        assert stats.flushes == flushes
        hits, rmp_hits = stats.hits, stats.rmp_hits
        assert core.read(0x10_000, 1) == b"x"
        assert (stats.hits, stats.rmp_hits) == (hits + 1, rmp_hits + 1)

    def test_wbinvd_flushes(self):
        machine, core = machine_with_boot_core()
        mapped_frame(machine, core)
        core.write(0x10_000, b"x")
        assert core.tlb.views
        core.regs.cpl = 0
        core.wbinvd()
        assert not core.tlb.views
        assert not core.tlb.rmp_allow


def verdict_key(ppn, vmpl, access):
    """The packed RMP verdict-cache key (see repro.hw.tlb)."""
    return (ppn << 6) | (vmpl << 4) | access.value


def in_monitor(veil, body):
    """Run ``body(core)`` at DomMON inside one real OS -> MON -> OS trip."""
    def handler(core, request):
        body(core)
        return {"status": "ok"}

    veil.veilmon._handlers["tlb_probe"] = handler
    reply = veil.gateway.call_monitor(veil.boot_core, {"op": "tlb_probe"})
    assert reply == {"status": "ok"}


class TestAcrossRealWorldSwitch:
    """The cache survives VMGEXIT/VMENTER; nothing stale survives with it."""

    @pytest.mark.parametrize("page", ["monitor-image", "domunt-vmsa"])
    def test_vmpl0_verdict_never_serves_domunt(self, veil, page):
        core = veil.boot_core
        ppn = (veil.veilmon.image_ppns[0] if page == "monitor-image"
               else veil.veilmon.vmsas[(0, VMPL_UNT)].ppn)
        vaddr = direct_map_vaddr(page_base(ppn))
        flushes = core.tlb.stats.flushes
        in_monitor(veil, lambda mon_core: mon_core.read(vaddr, 8))
        assert core.vmpl == VMPL_UNT
        # The VMPL-0 allow verdict is still cached and current ...
        assert core.tlb.stats.flushes == flushes
        assert core.tlb.rmp_generation == veil.machine.rmp.generation
        assert verdict_key(ppn, VMPL_MON, Access.READ) in core.tlb.rmp_allow
        # ... yet DomUNT's access to the same page halts with #NPF.
        with pytest.raises(CvmHalted):
            core.read(vaddr, 8)
        assert "#NPF" in veil.machine.halt_reason

    def test_monitor_rmpadjust_enforced_on_next_domunt_access(self, veil):
        core = veil.boot_core
        ppn = veil.machine.frames.alloc("tlb-probe")
        vaddr = direct_map_vaddr(page_base(ppn))
        assert core.read(vaddr, 4) == b"\x00" * 4
        assert verdict_key(ppn, VMPL_UNT, Access.READ) in core.tlb.rmp_allow
        in_monitor(veil, lambda mon_core: mon_core.rmpadjust(
            ppn=ppn, target_vmpl=VMPL_UNT, perms=Access.NONE))
        assert core.vmpl == VMPL_UNT
        with pytest.raises(CvmHalted):
            core.read(vaddr, 4)

    def test_protect_in_monitor_seen_after_switch_back(self, veil):
        # A direct-map (window-backed) page: protect() installs a new
        # entry instead of editing the cached one in place, so only the
        # view's generation check can catch it.
        core = veil.boot_core
        table = veil.kernel.kernel_table
        vaddr = direct_map_vaddr(page_base(
            veil.machine.frames.alloc("tlb-probe")))
        core.write(vaddr, b"rw")
        core.write(vaddr, b"rw")                        # cached pte
        in_monitor(veil, lambda mon_core: table.protect(vaddr >> 12,
                                                        writable=False))
        assert core.regs.cr3 == table.root_ppn
        with pytest.raises(PageFault):
            core.write(vaddr, b"no")
        assert core.read(vaddr, 2) == b"rw"


class TestCrossPageAccess:
    def test_cross_page_gather_scatter_non_adjacent_frames(self):
        # Regression test: virtually contiguous pages backed by
        # non-adjacent physical frames.  The old access path translated
        # only the first page and assumed physical contiguity.
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        frame_a = machine.frames.alloc()
        _gap = machine.frames.alloc()                   # force non-adjacency
        frame_b = machine.frames.alloc()
        assert frame_b != frame_a + 1
        table.map(0x10, frame_a)
        table.map(0x11, frame_b)
        core.regs.cr3 = table.root_ppn
        core.regs.cpl = 0
        payload = bytes(range(256)) * 16                # 4 KiB, 2 pages here
        vaddr = 0x10_000 + 0xF00                        # straddle the seam
        core.write(vaddr, payload)
        assert core.read(vaddr, len(payload)) == payload
        # Scatter really hit both frames at the right offsets.
        assert machine.memory.read(page_base(frame_a) + 0xF00,
                                   0x100) == payload[:0x100]
        assert machine.memory.read(page_base(frame_b),
                                   0x100) == payload[0x100:0x200]

    def test_cross_page_write_read_pinned(self):
        # 2048 + 2952 bytes over two non-adjacent frames: two walks of 40
        # and copies of 512 + 738 cycles, each way.
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        frame_a = machine.frames.alloc()
        _gap = machine.frames.alloc()
        frame_b = machine.frames.alloc()
        table.map(0x10, frame_a)
        table.map(0x11, frame_b)
        core.regs.cr3 = table.root_ppn
        core.regs.cpl = 0
        payload = bytes(range(250)) * 20
        for access in (lambda: core.write(0x10_800, payload),
                       lambda: core.read(0x10_800, len(payload))):
            before = machine.ledger.snapshot()
            result = access()
            charged = machine.ledger.since(before)
            assert charged.by_category == {"page_table_walk": 80,
                                           "copy": 1250}
        assert result == payload


#: 16 instruction bytes written 8 bytes before the seam of vpn 0x10/0x11.
FETCH_CODE = bytes(range(16))
FETCH_VADDR = 0x11_000 - 8


class TestCrossPageFetch:
    """A fetch across two pages runs the fast path's cross-page loop."""

    @staticmethod
    def fetch_across(second_nx):
        machine, core = machine_with_boot_core()
        table = machine.create_page_table()
        table.map(0x10, machine.frames.alloc(), nx=False)
        table.map(0x11, machine.frames.alloc(), nx=second_nx)
        core.regs.cr3 = table.root_ppn
        core.regs.cpl = 0
        core.write(FETCH_VADDR, FETCH_CODE)
        before = machine.ledger.snapshot()
        try:
            outcome = core.fetch(FETCH_VADDR, len(FETCH_CODE))
        except PageFault as fault:
            outcome = (fault.vpn, fault.access)
        return outcome, machine.ledger.since(before).total

    @pytest.mark.parametrize("second_nx, outcome, cycles", [
        (False, FETCH_CODE, 84),
        (True, (0x11, "nx"), 82),      # both walks, page one's copy
    ], ids=["executable", "second-page-nx"])
    def test_pinned_outcome(self, second_nx, outcome, cycles):
        assert self.fetch_across(second_nx) == (outcome, cycles)


class TestGenerationCounters:
    def test_table_mutators_bump_generation(self):
        machine, _core = machine_with_boot_core()
        table = machine.create_page_table()
        gen = table.generation
        table.map(0x10, machine.frames.alloc())
        assert table.generation > gen
        gen = table.generation
        table.protect(0x10, writable=False)
        assert table.generation > gen
        gen = table.generation
        table.unmap(0x10)
        assert table.generation > gen

    def test_rmp_mutators_bump_generation(self):
        machine, _core = machine_with_boot_core()
        frame = machine.frames.alloc()
        rmp = machine.rmp
        gen = rmp.generation
        rmp.rmpadjust(executing_vmpl=0, ppn=frame, target_vmpl=3,
                      perms=Access.rw())
        assert rmp.generation > gen
        gen = rmp.generation
        rmp.pvalidate(executing_vmpl=0, ppn=frame, validate=False)
        assert rmp.generation > gen
        gen = rmp.generation
        rmp.entry(frame)                                # mutable handout
        assert rmp.generation > gen

    def test_machine_tlb_stats_aggregates_cores(self):
        machine, core = machine_with_boot_core()
        mapped_frame(machine, core)
        core.write(0x10_000, b"x")
        core.read(0x10_000, 1)
        stats = machine.tlb_stats()
        per_core = core.tlb.stats.as_dict()
        for name, value in per_core.items():
            assert stats[name] >= value
