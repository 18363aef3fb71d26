"""The in-enclave SDK runtime (the paper's modified musl-libc).

Responsibilities (section 7):

* enclave entries and exits through the user-mapped GHCB;
* system-call redirection: marshal arguments into the shared staging
  region, exit to the untrusted application, let it execute the real
  syscall, re-enter, copy results back, IAGO-check returned pointers;
* demand-paging support: an enclave access that faults exits to the OS,
  waits for VeilS-ENC to verify + remap the page, and retries;
* fail-stop on unsupported syscalls (the enclave is killed).

All enclave memory access happens at DomENC (VMPL-2, CPL-3) through the
protected page table, so the runtime itself is subject to the isolation
it relies on.
"""

from __future__ import annotations

import typing

from ..errors import SdkError, SecurityViolation
from ..hw.ghcb import Ghcb, ghcb_view
from ..hw.memory import PAGE_SIZE, page_base
from ..hw.pagetable import PageFault
from ..hw.rmp import VMPL_ENC, VMPL_SER, VMPL_UNT
from ..trace import NULL_SPAN
from .allocator import EnclaveHeap
from .sanitizer import SyscallSanitizer

if typing.TYPE_CHECKING:
    from ..core.boot import VeilSystem
    from ..core.integration import EnclaveSetup
    from ..hw.vcpu import VirtualCpu

_STAGING_ALIGN = 16


class EnclaveRuntime:
    """Mediates one enclave's execution on its pinned VCPU."""

    def __init__(self, system: "VeilSystem", setup: "EnclaveSetup",
                 vcpu_id: int | None = None):
        self.system = system
        self.setup = setup
        self.kernel = system.kernel
        self.machine = system.machine
        record = system.enc.enclaves[setup.enclave_id]
        self.vcpu_id = vcpu_id if vcpu_id is not None else record.vcpu_id
        self.core: "VirtualCpu" = system.machine.cores[self.vcpu_id]
        # vcpu_id -> (Vmsa, ghcb_ppn); VeilS-ENC adds threads in place.
        self._threads: dict = record.threads
        # The hypervisor's (vcpu, VMPL) -> scheduled-VMSA table.
        self._vmsas: dict = system.hv.vmsas
        self._taint_tag = f"enclave-{setup.enclave_id}"
        self.proc = setup.proc
        self.sanitizer = SyscallSanitizer(self)
        self.inside = False
        self.killed = False
        self._staging_cursor = 0
        #: Section-10 side-channel mitigation: have VeilS-ENC WBINVD the
        #: core's microarchitectural state on every enclave exit.
        self.flush_on_exit = False
        self._flushing = False
        self.tracer = system.machine.tracer
        # ---- telemetry for the Fig. 5 overhead breakdown ----------------
        self.syscall_count = 0
        self.enclave_exits = 0        # switch round trips (syscalls+entry)
        self.interrupt_exits = 0
        self.redirect_bytes = 0
        self.fault_swapins = 0

    # ------------------------------------------------------------------
    # Entry / exit (user-mapped GHCB, section 6.2)
    # ------------------------------------------------------------------

    @property
    def thread_ghcb_ppn(self) -> int:
        """This thread's per-VCPU user-mapped GHCB (section 6.2)."""
        thread = self._threads.get(self.vcpu_id)
        if thread is None:
            return self.setup.ghcb_ppn
        return thread[1]

    def _user_ghcb(self) -> Ghcb:
        return ghcb_view(self.thread_ghcb_ppn)

    def _arm_ghcb(self, ghcb_ppn: int) -> None:
        """OS-side step: point the live GHCB MSR at the user GHCB before
        resuming the enclave (the kernel does this at schedule time)."""
        with self.kernel.kernel_context(self.core) as core:
            core.wrmsr_ghcb(page_base(ghcb_ppn))

    def enter(self) -> None:
        """Transition DomUNT -> DomENC."""
        if self.killed:
            raise SdkError("enclave was killed")
        if self.inside:
            raise SdkError("already inside the enclave")
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("enclave", "enter", vcpu=self.vcpu_id,
                             vmpl=VMPL_UNT, pid=self.proc.pid,
                             args={"enclave_id": self.setup.enclave_id}):
                self._switch_in()
        else:
            self._switch_in()
        self.inside = True
        self.setup.active_runtime = self
        self.enclave_exits += 1
        # Enclave execution leaves a per-core microarchitectural
        # footprint an attacker could probe after exit (section 10).
        self.core.taint_microarch(self._taint_tag)
        if self.setup.heap is None:
            self._init_heap()

    def _switch_in(self) -> None:
        """The body of :meth:`enter`: schedule this thread's instance
        (or re-arm its GHCB) and switch to it."""
        # The OS scheduler re-registers the thread's VMSA whenever a
        # different DomENC instance last ran on this core (several
        # enclaves multiplex one core's VMPL-2 slot).
        my_vmsa, ghcb_ppn = self._threads[self.vcpu_id]
        if self._vmsas.get((self.vcpu_id, VMPL_ENC)) is not my_vmsa:
            self.system.integration.schedule_enclave(
                self.core, self.setup.enclave_id,
                vcpu_id=self.vcpu_id, ghcb_ppn=ghcb_ppn)
        else:
            self._arm_ghcb(ghcb_ppn)
        self.core.switch_to(ghcb_view(ghcb_ppn), VMPL_ENC)

    def exit_to_untrusted(self) -> None:
        """Transition DomENC -> DomUNT (the costly enclave exit)."""
        if not self.inside:
            return
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("enclave", "exit", vcpu=self.vcpu_id,
                             vmpl=VMPL_ENC, pid=self.proc.pid,
                             args={"enclave_id": self.setup.enclave_id}):
                self._switch_out()
        else:
            self._switch_out()
        self.inside = False

    def _switch_out(self) -> None:
        """The body of :meth:`exit_to_untrusted`."""
        if self.flush_on_exit and not self._flushing:
            # Route through VeilS-ENC so privileged WBINVD scrubs this
            # core's cache/TLB footprint before untrusted code runs.
            self._flushing = True
            try:
                self.service_request({
                    "op": "enc_flush_cpu_state",
                    "enclave_id": self.setup.enclave_id})
            finally:
                self._flushing = False
        self.core.switch_to(self._user_ghcb(), VMPL_UNT)

    @property
    def heap(self) -> EnclaveHeap | None:
        """The enclave's heap allocator, shared by every thread."""
        return self.setup.heap

    def _init_heap(self) -> None:
        heap_vaddr, heap_pages, _w, _x = self.setup.layout["heap"]
        setup = self.setup

        # Accessors dispatch through whichever thread runtime is
        # currently executing inside the enclave, so allocator metadata
        # operations always run in a valid DomENC context.
        def heap_read(vaddr: int, length: int) -> bytes:
            return setup.active_runtime.enclave_read(vaddr, length)

        def heap_write(vaddr: int, data: bytes) -> None:
            setup.active_runtime.enclave_write(vaddr, data)

        setup.heap = EnclaveHeap(heap_vaddr, heap_pages * PAGE_SIZE,
                                 heap_read, heap_write)

    # ------------------------------------------------------------------
    # Enclave memory access (DomENC context; demand paging on fault)
    # ------------------------------------------------------------------

    def _require_inside(self) -> None:
        if not self.inside:
            raise SdkError("enclave memory access from outside")

    def enclave_read(self, vaddr: int, length: int) -> bytes:
        """Read enclave memory at DomENC (swaps in on fault)."""
        self._require_inside()
        try:
            return self.core.read(vaddr, length)
        except PageFault:
            self._swap_in(vaddr)
            return self.core.read(vaddr, length)

    def enclave_write(self, vaddr: int, data: bytes) -> None:
        """Write enclave memory at DomENC (swaps in on fault)."""
        self._require_inside()
        try:
            self.core.write(vaddr, data)
        except PageFault:
            self._swap_in(vaddr)
            self.core.write(vaddr, data)

    def _swap_in(self, vaddr: int) -> None:
        """Enclave page fault: exit, let the OS + VeilS-ENC restore the
        page (verified against the freshness hash), and return."""
        self.exit_to_untrusted()
        self.system.integration.restore_enclave_page(
            self.core, self.setup.enclave_id, vaddr)
        self.enter()
        self.fault_swapins += 1

    def address_in_enclave(self, addr: int, length: int = 1) -> bool:
        """Whether ``[addr, addr + length)`` overlaps the enclave window
        (IAGO check)."""
        base = self.setup.base_vaddr
        end = base + self.setup.binary.total_pages * PAGE_SIZE
        return addr < end and base < addr + length

    # ------------------------------------------------------------------
    # Shared staging region (ocall buffers)
    # ------------------------------------------------------------------

    def staging_reset(self) -> None:
        """Reset the per-call ocall staging cursor."""
        self._staging_cursor = 0

    def staging_alloc(self, length: int) -> int:
        """Reserve a staging slot in the shared region."""
        aligned = (length + _STAGING_ALIGN - 1) & ~(_STAGING_ALIGN - 1)
        limit = len(self.setup.shared_pages) * PAGE_SIZE
        if self._staging_cursor + aligned > limit:
            raise SdkError(
                f"ocall staging exhausted ({length}B requested)")
        vaddr = self.setup.shared_vaddr + self._staging_cursor
        self._staging_cursor += max(aligned, _STAGING_ALIGN)
        return vaddr

    # The sanitizer's marshalling copies are gather+scatter
    # pairs (enclave <-> staging).  These combined helpers make each
    # pair one call with one inside-check; the two VCPU accesses -- and
    # therefore every ledger charge -- are exactly those of the
    # read-then-write pair they replace.

    def stage_out(self, enclave_vaddr: int, staging_vaddr: int,
                  length: int) -> None:
        """Bulk-copy enclave bytes into the shared staging region."""
        self._require_inside()
        try:
            data = self.core.read(enclave_vaddr, length)
        except PageFault:
            self._swap_in(enclave_vaddr)
            data = self.core.read(enclave_vaddr, length)
        self.core.write(staging_vaddr, data)

    def stage_in(self, staging_vaddr: int, enclave_vaddr: int,
                 length: int) -> None:
        """Bulk-copy shared staging bytes back into the enclave."""
        self._require_inside()
        data = self.core.read(staging_vaddr, length)
        try:
            self.core.write(enclave_vaddr, data)
        except PageFault:
            self._swap_in(enclave_vaddr)
            self.core.write(enclave_vaddr, data)

    # ------------------------------------------------------------------
    # Cost accounting helpers used by the sanitizer
    # ------------------------------------------------------------------

    def charge(self, cycles: int, category: str = "sdk") -> None:
        """Charge SDK-side cycles to the ledger."""
        self.machine.ledger.charge(category, cycles)

    def charge_copy(self, nbytes: int) -> None:
        """Charge the copy cost for ``nbytes``."""
        self.machine.ledger.charge("copy",
                                   self.machine.cost.copy_cost(nbytes))

    # ------------------------------------------------------------------
    # System-call redirection (OCALL path, section 6.2)
    # ------------------------------------------------------------------

    def syscall(self, name: str, *args):
        """Redirect a syscall to the untrusted application."""
        if not self.inside:
            raise SdkError("enclave memory access from outside")
        if self.killed:
            raise SdkError("enclave was killed")
        self._staging_cursor = 0
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("enclave", f"redirect:{name}",
                             vcpu=self.vcpu_id, vmpl=VMPL_ENC,
                             pid=self.proc.pid):
                return self._redirect(name, args)
        return self._redirect(name, args)

    def _redirect(self, name: str, args: tuple):
        """The body of :meth:`syscall`: marshal, exit, run, re-enter,
        check the result."""
        try:
            marshalled = self.sanitizer.marshal(name, args)
        except SdkError:
            self._kill()
            raise
        self.exit_to_untrusted()
        try:
            result = self.kernel.syscall(self.core, self.proc, name,
                                         *marshalled.proxy_args)
        finally:
            self.enter()
        try:
            self.sanitizer.finish(name, marshalled, result)
        except SecurityViolation:
            self._kill()
            raise
        self.syscall_count += 1
        self.enclave_exits += 1
        self.redirect_bytes += marshalled.bytes_total
        return result

    def _kill(self) -> None:
        """Fail-stop: unsupported syscall or IAGO violation kills the
        enclave (section 7)."""
        self.killed = True
        if self.inside:
            self.exit_to_untrusted()
        self.system.integration.destroy_enclave(self.core,
                                                self.setup.enclave_id)

    # ------------------------------------------------------------------
    # System-call batching (paper section 10, FlexSC-style)
    # ------------------------------------------------------------------

    def batch(self) -> "SyscallBatch":
        """Start a syscall batch: queued calls marshal immediately but
        execute under a *single* enclave exit at flush time.

        Only calls without inbound buffers or pointer results are
        batchable (their results are not needed to continue); this is the
        paper's proposed exit-amortization optimization (section 10).
        """
        return SyscallBatch(self)

    def _execute_batch(self, queued: list) -> list:
        """One exit services every queued call (the flush path)."""
        if not queued:
            return []
        self._require_inside()
        tracer = self.tracer
        span = tracer.span("enclave", "batch_flush",
                           vcpu=self.vcpu_id, vmpl=VMPL_ENC,
                           pid=self.proc.pid,
                           args={"calls": len(queued)}) \
            if tracer.enabled else NULL_SPAN
        with span:
            self.exit_to_untrusted()
            results = []
            try:
                for name, proxy_args in queued:
                    results.append(self.kernel.syscall(
                        self.core, self.proc, name, *proxy_args))
            finally:
                self.enter()
        self.syscall_count += len(queued)
        self.enclave_exits += 1
        return results

    # ------------------------------------------------------------------
    # Compute + timer interrupts
    # ------------------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Model enclave-internal computation; may take timer interrupts,
        which the hypervisor relays to DomUNT (section 6.2)."""
        self._require_inside()
        self.machine.ledger.charge("compute", cycles)
        before = self.kernel.scheduler.tick_count
        if self.kernel.scheduler.maybe_tick(self.core):
            self.interrupt_exits += self.kernel.scheduler.tick_count - before

    # ------------------------------------------------------------------
    # Permission changes from inside the enclave (via its own IDCB)
    # ------------------------------------------------------------------

    def enclave_mprotect(self, vaddr: int, num_pages: int, *,
                         writable: bool, executable: bool) -> dict:
        """Send a permission-change request directly to VeilS-ENC through
        the enclave's GHCB + IDCB (the OS is not on this path)."""
        self._require_inside()
        record = self.system.enc.enclaves[self.setup.enclave_id]
        assert record.idcb is not None
        return self.service_request({
            "op": "enc_mprotect", "enclave_id": self.setup.enclave_id,
            "vaddr": vaddr, "num_pages": num_pages, "writable": writable,
            "executable": executable})

    def service_request(self, request: dict) -> dict:
        """DomENC -> DomSER round trip through the enclave's own IDCB
        and user GHCB (the OS is not on this path)."""
        self._require_inside()
        record = self.system.enc.enclaves[self.setup.enclave_id]
        assert record.idcb is not None
        request = dict(request)
        request["_reply_to"] = VMPL_ENC
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("enclave", f"service:{request.get('op')}",
                             vcpu=self.vcpu_id, vmpl=VMPL_ENC,
                             pid=self.proc.pid,
                             args={"enclave_id": self.setup.enclave_id}):
                self._call_service(record.idcb, request)
        else:
            self._call_service(record.idcb, request)
        self.enclave_exits += 1
        reply = record.idcb.read_reply(self.machine.memory)
        if reply.get("status") == "denied":
            raise SecurityViolation(str(reply.get("reason")))
        return reply

    def _call_service(self, idcb, request: dict) -> None:
        """The body of :meth:`service_request`."""
        idcb.write_request(self.machine.memory, request)
        self.core.switch_to(self._user_ghcb(), VMPL_SER)
        # Core now runs DomSER: the service body handles the request
        # and switches back to DomENC.
        self.system.veilmon.on_ser_entry(self.core, idcb=idcb)


class SyscallBatch:
    """FlexSC-style syscall batching (paper section 10).

    Queued calls are marshalled into disjoint staging slots immediately;
    ``flush`` (or clean ``with``-exit) executes all of them under one
    enclave exit.  Only fire-and-forget calls — no inbound buffers, no
    pointer results — are batchable, since execution is deferred.
    """

    def __init__(self, runtime: EnclaveRuntime):
        self.rt = runtime
        self.queued: list = []
        self.results: list = []
        self._flushed = False

    def __enter__(self) -> "SyscallBatch":
        self.rt.staging_reset()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()

    def syscall(self, name: str, *args) -> int:
        """Queue one call; returns its index into ``results``."""
        if self._flushed:
            raise SdkError("batch already flushed")
        spec = self.rt.sanitizer.spec_for(name)
        marshalled = self.rt.sanitizer.marshal(name, args)
        if marshalled.copy_back or spec.returns_pointer:
            raise SdkError(
                f"{name!r} is not batchable (needs its result)")
        self.queued.append((name, marshalled.proxy_args))
        self.rt.redirect_bytes += marshalled.bytes_total
        return len(self.queued) - 1

    def write(self, fd: int, data: bytes) -> int:
        """Queue a write of enclave-resident bytes."""
        heap = self.rt.heap
        assert heap is not None
        buf = heap.malloc(max(len(data), 1))
        self.rt.enclave_write(buf, data)
        index = self.syscall("write", fd, buf, len(data))
        heap.free(buf)      # staging already holds the copy
        return index

    def flush(self) -> list:
        """Execute every queued call under a single enclave exit."""
        if self._flushed:
            return self.results
        self._flushed = True
        self.results = self.rt._execute_batch(self.queued)
        return self.results
