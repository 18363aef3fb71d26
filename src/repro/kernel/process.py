"""Processes: address space, fd table, credentials, memory regions."""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass

from ..errors import KernelError
from ..hw.pagetable import GuestPageTable
from . import layout
from .fs import EBADF, OpenFile, Pipe
from .net import Socket

if typing.TYPE_CHECKING:
    from ..core.services.enc import Enclave


@dataclass
class FileDescriptor:
    """One fd-table slot: a file, socket, or pipe end."""

    kind: str                    # "file" | "socket" | "pipe_read" | "pipe_write"
    obj: object

    @property
    def file(self) -> OpenFile:
        if self.kind != "file":
            raise KernelError(EBADF, f"fd is a {self.kind}, not a file")
        return typing.cast(OpenFile, self.obj)

    @property
    def socket(self) -> Socket:
        if self.kind != "socket":
            raise KernelError(EBADF, f"fd is a {self.kind}, not a socket")
        return typing.cast(Socket, self.obj)

    @property
    def pipe(self) -> Pipe:
        if self.kind not in ("pipe_read", "pipe_write"):
            raise KernelError(EBADF, f"fd is a {self.kind}, not a pipe")
        return typing.cast(Pipe, self.obj)


@dataclass
class VmRegion:
    """A mapped user region (for mmap/munmap bookkeeping)."""

    vaddr: int
    num_pages: int
    ppns: list
    writable: bool
    executable: bool
    kind: str = "anon"           # "anon" | "file" | "stack" | "code" | "heap"


class Process:
    """A user process."""

    _pids = itertools.count(1)

    def __init__(self, name: str, page_table: GuestPageTable,
                 pid: int | None = None):
        # A kernel passes its own per-instance pid so identical runs on
        # fresh machines allocate identical pids (trace determinism);
        # the process-wide counter is the standalone-construction
        # fallback only.
        self.pid = next(Process._pids) if pid is None else pid
        self.name = name
        self.page_table = page_table
        self.fds: dict[int, FileDescriptor] = {}
        self._next_fd = 3            # 0/1/2 reserved for stdio
        self.uid = 0
        self.euid = 0
        self.regions: dict[int, VmRegion] = {}
        self._next_mmap = layout.USER_MMAP_BASE
        self._brk = layout.USER_HEAP_BASE
        self.enclave: "Enclave | None" = None
        self.exited = False
        self.exit_code: int | None = None
        self.children: list["Process"] = []

    # -- fd table ----------------------------------------------------------

    def install_fd(self, entry: FileDescriptor, *, at: int | None = None) -> int:
        """Place an entry in the fd table; returns the fd."""
        fd = at if at is not None else self._next_fd
        if at is None:
            self._next_fd += 1
        elif at >= self._next_fd:
            self._next_fd = at + 1
        self.fds[fd] = entry
        return fd

    def fd(self, number: int) -> FileDescriptor:
        """Look up an fd (EBADF if absent)."""
        entry = self.fds.get(number)
        if entry is None:
            raise KernelError(EBADF, f"bad fd {number}")
        return entry

    def remove_fd(self, number: int) -> FileDescriptor:
        """Remove and return an fd-table entry."""
        entry = self.fds.pop(number, None)
        if entry is None:
            raise KernelError(EBADF, f"bad fd {number}")
        return entry

    # -- memory regions -------------------------------------------------------

    def reserve_mmap_range(self, num_pages: int) -> int:
        """Reserve address space for an mmap."""
        vaddr = self._next_mmap
        self._next_mmap += num_pages * 4096
        return vaddr

    def add_region(self, region: VmRegion) -> None:
        """Record a mapped region."""
        self.regions[region.vaddr] = region

    def region_containing(self, vaddr: int) -> VmRegion | None:
        """Region covering ``vaddr``, if any."""
        for region in self.regions.values():
            end = region.vaddr + region.num_pages * 4096
            if region.vaddr <= vaddr < end:
                return region
        return None

    @property
    def brk(self) -> int:
        return self._brk

    def set_brk(self, new_brk: int) -> None:
        """Record the new heap break."""
        self._brk = new_brk
