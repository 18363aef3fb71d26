"""The assembled SEV-SNP machine: memory + RMP + cores + page tables.

:class:`SevSnpMachine` is the single object shared by the hypervisor, the
guest kernel, VeilMon, and the attack suite.  It owns the cycle ledger (so
all costs land in one place) and the fail-stop halt path used when RMP
violations occur.
"""

from __future__ import annotations

import typing

from ..errors import CvmHalted, SimulationError
from ..trace import NULL_TRACER, default_tracer
from .cycles import CostModel, CycleLedger
from .memory import PAGE_SIZE, PhysicalMemory
from .pagetable import GuestPageTable
from .rmp import Rmp
from .vcpu import VirtualCpu

if typing.TYPE_CHECKING:
    from ..hv.hypervisor import Hypervisor


class FrameAllocator:
    """Physical frame allocator over the guest address space.

    Page 0 is never handed out (null-page hygiene).  Frees are checked for
    double-free because allocator corruption would silently invalidate
    security experiments.
    """

    def __init__(self, num_pages: int, first_usable: int = 1):
        self.num_pages = num_pages
        self._next = first_usable
        self._free: list[int] = []
        self._allocated: set[int] = set()

    def alloc(self, label: str = "") -> int:
        """Hand out one free frame."""
        if self._free:
            ppn = self._free.pop()
        elif self._next < self.num_pages:
            ppn = self._next
            self._next += 1
        else:
            raise MemoryError("out of physical frames")
        self._allocated.add(ppn)
        return ppn

    def alloc_many(self, count: int, label: str = "") -> list[int]:
        """Hand out ``count`` frames.

        Bulk path: splice the free-list tail and extend from
        the high-water mark in two block operations.  The frame sequence
        is exactly what ``count`` calls of :meth:`alloc` would return
        (free list popped last-in-first-out, then fresh frames in
        ascending order) -- pinned by a parity test.
        """
        if count <= 0:
            return []
        free = self._free
        take = min(count, len(free))
        ppns = free[len(free) - take:][::-1]
        del free[len(free) - take:]
        remaining = count - take
        if remaining:
            if self._next + remaining > self.num_pages:
                # Roll back the splice so a failed bulk request leaves
                # the allocator exactly as it found it.
                free.extend(reversed(ppns))
                raise MemoryError("out of physical frames")
            fresh = range(self._next, self._next + remaining)
            self._next += remaining
            ppns.extend(fresh)
        self._allocated.update(ppns)
        return ppns

    def free(self, ppn: int) -> None:
        """Return a frame to the pool (double-free checked)."""
        if ppn not in self._allocated:
            raise SimulationError(f"double/invalid free of frame {ppn:#x}")
        self._allocated.discard(ppn)
        self._free.append(ppn)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)


class SevSnpMachine:
    """A server machine running one confidential VM under SEV-SNP."""

    def __init__(self, *, memory_bytes: int = 64 * 1024 * 1024,
                 num_cores: int = 4, cost: CostModel | None = None,
                 tracer=None):
        if num_cores < 1:
            raise SimulationError(
                f"num_cores must be at least 1, got {num_cores}")
        if memory_bytes <= 0 or memory_bytes % PAGE_SIZE:
            raise SimulationError(
                f"memory_bytes must be a positive multiple of "
                f"{PAGE_SIZE}, got {memory_bytes}")
        self.cost = cost or CostModel()
        self.ledger = CycleLedger()
        # Observability: an explicit tracer wins, then the process-wide
        # default (benchmark fixture), then the no-op tracer.  Tracing
        # never charges the ledger, so cycle totals are identical with
        # it on or off.
        self.tracer = tracer or default_tracer() or NULL_TRACER
        self.tracer.attach_ledger(self.ledger)
        self.memory = PhysicalMemory(memory_bytes, cost=self.cost,
                                     ledger=self.ledger)
        self.rmp = Rmp(self.memory.num_pages, cost=self.cost,
                       ledger=self.ledger, tracer=self.tracer)
        self.frames = FrameAllocator(self.memory.num_pages)
        # Tables registry must exist before cores: each VCPU's TLB fast
        # path binds to it at construction.
        self._page_tables: dict[int, GuestPageTable] = {}
        #: Bumped whenever the registry itself changes (a table created or
        #: re-registered).  The VCPU fast path caches its current-root view
        #: under this version so a *different* table appearing under a
        #: reused root can never serve stale translations.
        self._pt_version = 0
        self.cores = [VirtualCpu(self, i) for i in range(num_cores)]
        self.hypervisor: "Hypervisor | None" = None
        self.halted = False
        self.halt_reason: str | None = None
        #: ppn -> Vmsa object, the hardware's view of VMSA pages (the
        #: hypervisor's VMENTER path validates entries against the RMP).
        self.vmsa_objects: dict[int, object] = {}
        #: Guest virtual address of the kernel's interrupt handler (set by
        #: the kernel when it installs its IDT); used by the hardware's
        #: interrupt delivery path.
        self.idt_handler_vaddr: int = 0

    # -- page tables ---------------------------------------------------------

    def create_page_table(self) -> GuestPageTable:
        """Allocate a root frame and register a new guest page table."""
        root = self.frames.alloc("page-table-root")
        table = GuestPageTable(root, cost=self.cost, ledger=self.ledger)
        self._page_tables[root] = table
        self._pt_version += 1
        return table

    def register_page_table(self, table: GuestPageTable) -> None:
        """Track an externally built table by its root."""
        self._page_tables[table.root_ppn] = table
        self._pt_version += 1

    def page_table_for_root(self, root_ppn: int) -> GuestPageTable:
        """The table rooted at ``root_ppn``."""
        table = self._page_tables.get(root_ppn)
        if table is None:
            raise SimulationError(f"no page table rooted at {root_ppn:#x}")
        return table

    # -- lifecycle --------------------------------------------------------------

    def halt(self, reason: str, *, cause: Exception | None = None) -> None:
        """Fail-stop the CVM (the paper's #NPF halt behaviour)."""
        self.halted = True
        self.halt_reason = reason
        raise CvmHalted(f"CVM halted: {reason}", cause=cause)

    def check_running(self) -> None:
        """Raise if the CVM has halted."""
        if self.halted:
            raise CvmHalted(f"CVM halted: {self.halt_reason}")

    # -- convenience ---------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self.memory.num_pages

    def core(self, index: int) -> VirtualCpu:
        """Physical core ``index``."""
        return self.cores[index]

    def tlb_stats(self) -> dict[str, int]:
        """Aggregate software-TLB counters over every core.

        Keys match :class:`repro.hw.tlb.TlbStats` (``hits``, ``misses``,
        ``rmp_hits``, ``rmp_misses``, ``flushes``, ...); all zero until
        a core has touched memory.
        """
        totals: dict[str, int] = {}
        for core in self.cores:
            for name, value in core.tlb.stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def publish_tlb_metrics(self, metrics=None) -> None:
        """Fold TLB counters into a metrics registry under ``tlb/...``.

        Defaults to this machine's tracer registry.  Call *after* any
        Chrome-trace export: the exported file embeds the metrics dump,
        and the exported trace holds model state only.
        """
        if metrics is None:
            metrics = self.tracer.metrics
        for core in self.cores:
            core.tlb.publish(metrics)

    def describe(self) -> str:
        """One-line human summary of the machine."""
        gib = self.memory.size / (1024 ** 3)
        return (f"SEV-SNP machine: {gib:.2f} GiB guest memory, "
                f"{len(self.cores)} cores, {self.num_pages} pages")
