"""Filesystem persistence over the virtio block device.

Serializes the in-memory filesystem to the (untrusted) host block device
and restores it, moving every byte through a *shared bounce buffer* --
the exact path the paper's section 5.3 delegation covers: converting the
bounce page to shared state requires a page-state change, which routes
``PVALIDATE`` through VeilMon on a Veil CVM.

The on-disk format is a length-prefixed JSON snapshot in consecutive
sectors starting at :data:`SUPERBLOCK_LBA`.  The host is untrusted: a
restore validates structure but the data's confidentiality/integrity is
exactly that of any CVM disk (out of Veil's scope; enclaves keep their
secrets in memory or seal them).
"""

from __future__ import annotations

import typing

from ..codec import decode, encode
from ..errors import CodecError, KernelError
from ..hw.memory import PAGE_SIZE, page_base
from .fs import EIO, FileSystem, Inode, InodeType

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu
    from .kernel import Kernel

SECTOR = 512
SUPERBLOCK_LBA = 8
MAGIC = "veil-fs-v1"

#: Sectors staged per bounce-page fill.  The bounce buffer is one page,
#: so a full page's worth of sectors moves per memory call, while the
#: device protocol stays one hypercall per sector.  ``SECTOR *
#: copy_per_byte_x1000`` is an exact multiple of 1000 (512 * 250 =
#: 128000), so a batched copy charges exactly what per-sector copies
#: would; ``tests/kernel/test_diskfs.py`` pins the ledger values.
SECTORS_PER_PAGE = PAGE_SIZE // SECTOR


def _serialize_tree(fs: FileSystem) -> dict:
    """Flatten the namespace to path-keyed records (hardlink-safe)."""
    records: dict[str, dict] = {}
    seen_inodes: dict[int, str] = {}

    def walk(node: Inode, path: str) -> None:
        for name, child in sorted(node.children.items()):
            child_path = f"{path}/{name}" if path != "/" else f"/{name}"
            if child.itype == InodeType.DIR:
                records[child_path] = {"type": "dir", "mode": child.mode}
                walk(child, child_path)
            elif child.itype == InodeType.FILE:
                if child.ino in seen_inodes:
                    records[child_path] = {
                        "type": "hardlink",
                        "target": seen_inodes[child.ino]}
                else:
                    records[child_path] = {
                        "type": "file", "mode": child.mode,
                        "data_hex": bytes(child.data).hex()}
                    seen_inodes[child.ino] = child_path
            elif child.itype == InodeType.SYMLINK:
                records[child_path] = {"type": "symlink",
                                       "target": child.target}
            elif child.itype == InodeType.DEVICE:
                records[child_path] = {"type": "device",
                                       "device": child.device}
            # FIFOs hold transient state; they are not persisted.

    walk(fs.root, "/")
    return {"magic": MAGIC, "records": records}


def _field(path: str, record: dict, key: str, kind: type, default=None):
    """``record[key]`` checked to be a ``kind``."""
    value = record.get(key, default)
    if not isinstance(value, kind):
        raise KernelError(EIO, f"snapshot record {path!r}: bad {key!r}")
    return value


def _add_record(fs: FileSystem, path: str, record: dict) -> None:
    """Recreate one non-hardlink record in ``fs``."""
    kind = record.get("type")
    if kind == "dir":
        fs.mkdir(path, _field(path, record, "mode", int, 0o755))
    elif kind == "file":
        mode = _field(path, record, "mode", int, 0o644)
        data_hex = _field(path, record, "data_hex", str)
        try:
            data = bytes.fromhex(data_hex)
        except ValueError:
            raise KernelError(EIO, f"snapshot record {path!r}: bad "
                              "'data_hex'") from None
        inode = fs.create(path, mode=mode)
        inode.data = bytearray(data)
    elif kind == "symlink":
        fs.symlink(_field(path, record, "target", str), path)
    elif kind == "device":
        device = fs._new_inode(InodeType.DEVICE)
        device.device = _field(path, record, "device", str)
        parent, name = fs.resolve_parent(path)
        parent.children[name] = device
    elif kind != "hardlink":
        raise KernelError(EIO, f"snapshot record {path!r}: bad 'type'")


def _rebuild_tree(records) -> tuple[FileSystem, int]:
    """Build a fresh tree from snapshot ``records``.

    Returns ``(tree, records restored)``; installing the tree is the
    caller's job.  A record the namespace refuses (missing parent,
    duplicate name, relative path) is re-raised as ``EIO`` too.
    """
    if not isinstance(records, dict):
        raise KernelError(EIO, "filesystem snapshot has no record table")
    fs = FileSystem()
    restored = 0
    try:
        # Dirs first (sorted paths put parents before children).
        for path, record in sorted(records.items()):
            if not isinstance(record, dict):
                raise KernelError(EIO, f"snapshot record {path!r} is "
                                  "not an object")
            _add_record(fs, path, record)
            restored += 1
        # Hardlinks once their targets exist.
        for path, record in sorted(records.items()):
            if record["type"] == "hardlink":
                fs.link(_field(path, record, "target", str), path)
                restored += 1
    except KernelError as refused:
        if refused.errno == EIO:
            raise
        raise KernelError(EIO, f"snapshot record rejected: "
                          f"{refused}") from None
    return fs, restored


class DiskSync:
    """Sync/restore engine bound to one kernel."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._bounce_ppn: int | None = None

    def _bounce(self, core: "VirtualCpu") -> int:
        """Lazily set up the shared bounce page (PVALIDATE-delegated
        page-state change under Veil)."""
        if self._bounce_ppn is None:
            ppn = self.kernel.mm.alloc_frame("disk-bounce")
            self.kernel.share_page_with_host(core, ppn)
            self._bounce_ppn = ppn
        return self._bounce_ppn

    def _write_sectors(self, core: "VirtualCpu", blob: bytes) -> int:
        """Stream the snapshot through the bounce buffer to the disk."""
        bounce = self._bounce(core)
        lba = SUPERBLOCK_LBA
        memory = self.kernel.machine.memory
        base = page_base(bounce)
        for start in range(0, len(blob), SECTOR * SECTORS_PER_PAGE):
            batch = blob[start:start + SECTOR * SECTORS_PER_PAGE]
            padded = len(batch) + (-len(batch)) % SECTOR
            batch = batch.ljust(padded, b"\x00")
            # Stage in the shared page (the device "DMAs" from it).
            memory.write(base, batch)
            staged_hex = memory.read(base, len(batch)).hex()
            for sec in range(0, len(batch), SECTOR):
                self.kernel.hypercall_io(core, {
                    "op": "io", "device": "block", "action": "write",
                    "lba": lba,
                    "data_hex": staged_hex[2 * sec:2 * (sec + SECTOR)]})
                lba += 1
        return lba - SUPERBLOCK_LBA

    def _read_sectors(self, core: "VirtualCpu", first: int,
                      end: int) -> bytes:
        """Snapshot sectors ``[first, end)``, one block read each, staged
        through the bounce buffer a page at a time."""
        bounce = self._bounce(core)
        blob = bytearray()
        memory = self.kernel.machine.memory
        base = page_base(bounce)
        for start in range(first, end, SECTORS_PER_PAGE):
            sectors = []
            for index in range(start, min(start + SECTORS_PER_PAGE, end)):
                reply = self.kernel.hypercall_io(core, {
                    "op": "io", "device": "block", "action": "read",
                    "lba": SUPERBLOCK_LBA + index})
                sectors.append(bytes.fromhex(reply["data_hex"]))
            batch = b"".join(sectors)
            memory.write(base, batch)
            blob.extend(memory.read(base, len(batch)))
        return bytes(blob)

    # ------------------------------------------------------------------

    def sync(self, core: "VirtualCpu") -> int:
        """Persist the filesystem; returns sectors written."""
        snapshot = encode(_serialize_tree(self.kernel.fs))
        framed = len(snapshot).to_bytes(8, "little") + snapshot
        with self.kernel.kernel_context(core):
            return self._write_sectors(core, framed)

    def restore(self, core: "VirtualCpu") -> int:
        """Rebuild the filesystem from disk; returns records restored.

        The mounted tree is replaced only once every record has been
        rebuilt: a malformed snapshot raises ``KernelError(EIO)`` and
        leaves the previous tree installed.
        """
        with self.kernel.kernel_context(core):
            # The first sector carries the length prefix; it is read once
            # and the rest of the snapshot continues from sector 1.
            header = self._read_sectors(core, 0, 1)
            length = int.from_bytes(header[:8], "little")
            if length == 0 or length > 64 * 1024 * 1024:
                raise KernelError(EIO, "no valid filesystem snapshot")
            total_sectors = (8 + length + SECTOR - 1) // SECTOR
            blob = header + self._read_sectors(core, 1, total_sectors)
        try:
            snapshot = decode(blob[8:8 + length])
        except CodecError:
            raise KernelError(EIO, "filesystem snapshot is not "
                              "valid JSON") from None
        if not isinstance(snapshot, dict) or \
                snapshot.get("magic") != MAGIC:
            raise KernelError(EIO, "bad filesystem snapshot magic")
        fs, restored = _rebuild_tree(snapshot.get("records"))
        self.kernel.fs = fs
        return restored

