"""Integration tests: filesystem persistence over the block device."""

import hashlib
import json

import pytest

from repro.errors import KernelError
from repro.kernel.diskfs import MAGIC, SECTOR, DiskSync, SUPERBLOCK_LBA
from repro.kernel.fs import InodeType, O_CREAT, O_RDWR


def populate(system):
    kernel, core = system.kernel, system.boot_core
    proc = kernel.create_process("writer")
    kernel.syscall(core, proc, "mkdir", "/data")
    fd = kernel.syscall(core, proc, "open", "/data/report.txt",
                        O_CREAT | O_RDWR)
    import repro.kernel.layout as layout
    buf = layout.USER_STACK_TOP - 4096
    core.regs.cr3, core.regs.cpl = proc.page_table.root_ppn, 3
    core.write(buf, b"quarterly numbers")
    kernel.syscall(core, proc, "write", fd, buf, 17)
    kernel.syscall(core, proc, "close", fd)
    kernel.syscall(core, proc, "symlink", "/data/report.txt",
                   "/data/latest")
    kernel.syscall(core, proc, "link", "/data/report.txt",
                   "/data/report-alias.txt")


class TestSyncRestore:
    def test_roundtrip_preserves_namespace(self, native):
        populate(native)
        sync = DiskSync(native.kernel)
        sectors = sync.sync(native.boot_core)
        assert sectors > 0
        # Wipe and restore.
        restored = sync.restore(native.boot_core)
        assert restored >= 4
        fs = native.kernel.fs
        assert bytes(fs.resolve("/data/report.txt").data) == \
            b"quarterly numbers"
        assert fs.resolve("/data/latest",
                          follow=False).itype == InodeType.SYMLINK
        assert fs.resolve("/data/report-alias.txt") is \
            fs.resolve("/data/report.txt")
        assert fs.resolve("/data/report.txt").nlink == 2
        assert fs.resolve("/dev/console").itype == InodeType.DEVICE

    def test_snapshot_lives_on_host_device(self, native):
        populate(native)
        DiskSync(native.kernel).sync(native.boot_core)
        raw = native.hv.block.read_sector(SUPERBLOCK_LBA)
        assert int.from_bytes(raw[:8], "little") > 0

    def test_restore_without_snapshot_rejected(self, native):
        with pytest.raises(KernelError):
            DiskSync(native.kernel).restore(native.boot_core)

    def test_sync_under_veil_uses_pvalidate_delegation(self, veil):
        populate(veil)
        before = veil.veilmon.request_count
        DiskSync(veil.kernel).sync(veil.boot_core)
        # The bounce-buffer page-state change routed through VeilMon.
        assert veil.veilmon.request_count > before

    def test_restore_after_tampered_magic_rejected(self, native):
        import json
        populate(native)
        sync = DiskSync(native.kernel)
        sync.sync(native.boot_core)
        # Malicious host rewrites the snapshot with a bad magic.
        evil = json.dumps({"magic": "evil", "records": {}}).encode()
        framed = len(evil).to_bytes(8, "little") + evil
        native.hv.block.write_sector(SUPERBLOCK_LBA,
                                     framed.ljust(512, b"\x00"))
        with pytest.raises(KernelError):
            sync.restore(native.boot_core)

    def test_large_file_spans_many_sectors(self, native):
        inode = native.kernel.fs.create("/big.bin")
        inode.data = bytearray(b"\xab" * 20_000)
        sync = DiskSync(native.kernel)
        sectors = sync.sync(native.boot_core)
        assert sectors > 20_000 * 2 // 512      # hex doubles the size
        sync.restore(native.boot_core)
        assert native.kernel.fs.resolve("/big.bin").size == 20_000


def populate_four_files(system):
    """Four 300-byte files under ``/bulk``: a six-sector snapshot."""
    kernel, core = system.kernel, system.boot_core
    proc = kernel.create_process("writer")
    kernel.syscall(core, proc, "mkdir", "/bulk")
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


def charged(system, fn):
    """``(fn(), per-category ledger charges of the call)``."""
    mark = system.machine.ledger.snapshot()
    result = fn()
    return result, dict(system.machine.ledger.since(mark).by_category)


def disk_sha256(system, sectors: int) -> str:
    """sha256 over the snapshot's sectors as the host device holds them.

    Reads from LBA 8 literally: where the snapshot starts is part of the
    on-disk format.
    """
    digest = hashlib.sha256()
    for lba in range(8, 8 + sectors):
        digest.update(system.hv.block.read_sector(lba))
    return digest.hexdigest()


class TestGoldenLedger:
    """Sync and restore stage a page of sectors per bounce-buffer copy.

    These values were recorded from the per-sector staging loop the
    batched path replaced; the batch must charge, and put on disk,
    exactly what that loop did.  A restore reads each sector once: the
    restore charges are the recorded ones less the second read of the
    first sector, one block-read hypercall (7,135 ``domain_switch``
    cycles and 560 ``copy``: the 63-byte request frame written and read
    back, 15 + 1 + 14, and the 1,060-byte reply frame, 265 + 1 + 264)
    and its 512-byte bounce staging (128 written + 128 read).
    """

    def test_four_file_namespace(self, native):
        populate_four_files(native)
        sync = DiskSync(native.kernel)
        sectors, charges = charged(native,
                                   lambda: sync.sync(native.boot_core))
        assert sectors == 6
        assert charges == {"copy": 4956, "domain_switch": 49945,
                           "pvalidate": 800}
        assert disk_sha256(native, sectors) == (
            "37e86cee861d1b34cd199d54e5098050"
            "cdcfb3cda00f5cc81f493f076997cf41")
        restored, charges = charged(
            native, lambda: sync.restore(native.boot_core))
        assert restored == 11
        assert charges == {"copy": 5720 - 816,
                           "domain_switch": 49945 - 7135}
        for index in range(4):
            assert bytes(native.kernel.fs.resolve(
                f"/bulk/f{index}").data) == bytes(
                (index + i) % 256 for i in range(300))

    @pytest.mark.parametrize("system_name, sync_charges, sha, records", [
        ("native", {"copy": 64670, "domain_switch": 570800,
                    "pvalidate": 800},
         "269fca41a591b893d8f7f5b9b4ec95be"
         "072fbf76189a83fba9338b03a7b6f785", 7),
        ("veil", {"copy": 64758, "domain_switch": 585070,
                  "monitor": 600, "msr": 200, "pvalidate": 800},
         "3cf1fe862907bf432f14cf9e381d62a1"
         "5d6f150bdbd12572534d50c52aa842fb", 8),
    ], ids=["native", "veil"])
    def test_multi_page_file(self, request, system_name, sync_charges,
                             sha, records):
        """79 sectors: ten bounce-page batches, the last one partial."""
        system = request.getfixturevalue(system_name)
        system.kernel.fs.create("/big.bin").data = bytearray(
            b"\xab" * 20_000)
        sync = DiskSync(system.kernel)
        sectors, charges = charged(system,
                                   lambda: sync.sync(system.boot_core))
        assert sectors == 79
        assert charges == sync_charges
        assert disk_sha256(system, sectors) == sha
        restored, charges = charged(
            system, lambda: sync.restore(system.boot_core))
        assert restored == records
        assert charges == {"copy": 65434 - 816,
                           "domain_switch": 570800 - 7135}

    def test_restore_reads_each_sector_once(self, native, monkeypatch):
        """One block ``read`` per snapshot sector, the length-prefix
        sector included, not sectors + 1."""
        native.kernel.fs.create("/big.bin").data = bytearray(
            b"\xab" * 20_000)
        sync = DiskSync(native.kernel)
        sectors = sync.sync(native.boot_core)
        block = native.hv.block
        reads = []
        read_sector = block.read_sector

        def counting_read(lba):
            reads.append(lba)
            return read_sector(lba)

        monkeypatch.setattr(block, "read_sector", counting_read)
        sync.restore(native.boot_core)
        assert reads == list(range(SUPERBLOCK_LBA,
                                   SUPERBLOCK_LBA + sectors))
        assert native.kernel.fs.resolve("/big.bin").size == 20_000


def snapshot_bytes(records) -> bytes:
    """A well-framed snapshot body carrying ``records``."""
    return json.dumps({"magic": MAGIC, "records": records}).encode()


#: Host-written snapshot bodies behind a valid length prefix.  Record
#: tables lead with a good record so a restore that installs its tree
#: before parsing would be caught half-built.
MALFORMED_SNAPSHOTS = {
    "not-utf8": b"\xff\xfe\xfd",
    "not-json": b"not json",
    "not-an-object": b"[1,2]",
    "no-records": json.dumps({"magic": MAGIC}).encode(),
    "records-not-a-table": snapshot_bytes([1]),
    "record-without-type": snapshot_bytes(
        {"/a": {"type": "dir", "mode": 0o755}, "/b": {"mode": 0o644}}),
    "bad-data-hex": snapshot_bytes(
        {"/a": {"type": "dir", "mode": 0o755},
         "/b": {"type": "file", "mode": 0o644, "data_hex": "zz"}}),
}


class TestMalformedSnapshot:
    @pytest.mark.parametrize("body", MALFORMED_SNAPSHOTS.values(),
                             ids=MALFORMED_SNAPSHOTS.keys())
    def test_rejected_and_old_tree_kept(self, native, body):
        kernel = native.kernel
        kernel.fs.create("/kept.txt").data = bytearray(b"still here")
        mounted = kernel.fs
        framed = len(body).to_bytes(8, "little") + body
        for offset in range(0, len(framed), SECTOR):
            native.hv.block.write_sector(
                SUPERBLOCK_LBA + offset // SECTOR,
                framed[offset:offset + SECTOR].ljust(SECTOR, b"\x00"))
        with pytest.raises(KernelError) as refused:
            DiskSync(kernel).restore(native.boot_core)
        assert refused.value.errno == 5
        assert kernel.fs is mounted
        assert kernel.fs.resolve("/dev/console").itype == InodeType.DEVICE
        assert bytes(kernel.fs.resolve("/kept.txt").data) == b"still here"
        assert not kernel.fs.exists("/a")
