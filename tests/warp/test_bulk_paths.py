"""Disk-sync checks that the removed ``VEIL_WARP`` knob stays removed.

``VEIL_WARP`` once chose between a per-sector and a page-batched disk
staging loop.  Only the batched loop is left, so a ``VEIL_WARP`` value
left over in the environment must change nothing: same sectors, same
bytes on disk, same cycle charges.  The golden values for that loop are
pinned in ``tests/kernel/test_diskfs.py`` (``TestGoldenLedger``); the
bulk frame allocator in ``tests/hw/test_platform.py``.
"""

from repro.kernel.diskfs import DiskSync, SUPERBLOCK_LBA


def populate(system):
    """A small namespace whose snapshot spans several sectors."""
    kernel, core = system.kernel, system.boot_core
    proc = kernel.create_process("writer")
    kernel.syscall(core, proc, "mkdir", "/bulk")
    from repro.kernel.fs import O_CREAT, O_RDWR
    import repro.kernel.layout as layout
    buf = layout.USER_STACK_TOP - 4096
    core.regs.cr3, core.regs.cpl = proc.page_table.root_ppn, 3
    for index in range(4):
        fd = kernel.syscall(core, proc, "open", f"/bulk/f{index}",
                            O_CREAT | O_RDWR)
        payload = bytes((index + i) % 256 for i in range(300))
        core.write(buf, payload)
        kernel.syscall(core, proc, "write", fd, buf, len(payload))
        kernel.syscall(core, proc, "close", fd)


def sync_lap(monkeypatch, warp):
    """Boot, populate, sync with a stale ``VEIL_WARP`` set.

    Returns (sectors, charges, superblock, restored, system).
    """
    from repro.core import VeilConfig, boot_native_system
    monkeypatch.setenv("VEIL_WARP", "1" if warp else "0")
    system = boot_native_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64))
    populate(system)
    mark = system.machine.ledger.snapshot()
    sync = DiskSync(system.kernel)
    sectors = sync.sync(system.boot_core)
    charges = dict(system.machine.ledger.since(mark).by_category)
    superblock = system.hv.block.read_sector(SUPERBLOCK_LBA)
    restored = sync.restore(system.boot_core)
    return sectors, charges, superblock, restored, system


class TestDiskSyncParity:
    def test_warp_and_classic_write_identical_state(self, monkeypatch):
        (slow_sectors, slow_charges, slow_super, slow_restored,
         slow_sys) = sync_lap(monkeypatch, warp=False)
        (fast_sectors, fast_charges, fast_super, fast_restored,
         fast_sys) = sync_lap(monkeypatch, warp=True)
        assert fast_sectors == slow_sectors > 1
        assert fast_charges == slow_charges
        assert fast_super == slow_super
        assert fast_restored == slow_restored
        # The restored namespaces carry identical file bytes.
        for index in range(4):
            slow = slow_sys.kernel.fs.resolve(f"/bulk/f{index}").data
            fast = fast_sys.kernel.fs.resolve(f"/bulk/f{index}").data
            assert bytes(fast) == bytes(slow)

    def test_superblock_lba_unchanged_by_fast_path(self):
        assert SUPERBLOCK_LBA == 8
