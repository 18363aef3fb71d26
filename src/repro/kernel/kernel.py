"""The guest kernel object: boot, processes, devices, hooks.

One :class:`Kernel` instance models the commodity Linux guest.  It can boot
in two modes:

* **native** -- the kernel occupies the boot VCPU at VMPL-0 (the standard
  CVM deployment the paper's baseline measures);
* **under Veil** -- the kernel is booted *by VeilMon* into DomUNT (VMPL-3)
  with VCPU-boot and PVALIDATE delegation hooks installed
  (:mod:`repro.core.boot` drives this).

The kernel deliberately exposes :meth:`compromise` -- modeling the paper's
threat step "the attacker ... eventually compromise[s] the CVM's operating
system kernel" -- which yields an attacker context with arbitrary
kernel-privilege primitives (see :mod:`repro.kernel.vulnerable`).
"""

from __future__ import annotations

import itertools
import typing

from ..errors import KernelError, SimulationError
from ..hw.memory import PAGE_SIZE, page_base
from ..hw.pagetable import GuestPageTable, LinearWindow
from ..hw.rmp import VMPL_MON
from . import layout
from .audit import DEFAULT_AUDIT_RULESET, Kaudit
from .fs import FileSystem, InodeType, O_RDWR, OpenFile
from .mm import MemoryManager
from .modules import ModuleLoader
from .net import NetworkStack
from .process import FileDescriptor, Process, VmRegion
from .scheduler import Scheduler
from .syscalls import SyscallTable

if typing.TYPE_CHECKING:
    from ..hw.platform import SevSnpMachine
    from ..hw.vcpu import VirtualCpu

#: Cost of the kernel-side interrupt handler (charged per relayed tick).
INTERRUPT_HANDLER_CYCLES = 2000
#: Console buffer size before an I/O exit flushes it to the hypervisor.
CONSOLE_FLUSH_BYTES = 4096


class KernelContext:
    """``with kernel.kernel_context(core) as core:`` -- kernel cr3 and
    CPL-0 on ``core`` inside the block, the previous pair restored after.

    A slotted class rather than a generator context manager, so
    entering one builds no generator.  Enclave entry, which arms a GHCB
    on every redirected syscall, sets the pair itself around its one
    ``wrmsr_ghcb`` and builds no context at all.
    """

    __slots__ = ("core", "root_ppn", "prev")

    def __init__(self, core: "VirtualCpu", root_ppn: int):
        self.core = core
        self.root_ppn = root_ppn

    def __enter__(self) -> "VirtualCpu":
        core = self.core
        regs = core.regs
        self.prev = regs.cr3, regs.cpl
        regs.cr3 = self.root_ppn
        regs.cpl = 0
        return core

    def __exit__(self, exc_type, exc, tb) -> None:
        # Re-read the register file: the block may have switched the
        # core to another instance.
        regs = self.core.regs
        regs.cr3, regs.cpl = self.prev


class Kernel:
    """The commodity guest kernel."""

    def __init__(self, machine: "SevSnpMachine"):
        self.machine = machine
        self.mm = MemoryManager(machine)
        self.fs = FileSystem()
        self.net = NetworkStack()
        self.audit = Kaudit()
        self.scheduler = Scheduler()
        self.syscalls = SyscallTable(self)
        self.module_loader = ModuleLoader(self)
        self.kernel_table: GuestPageTable | None = None
        self.symbol_table: dict[str, int] = {}
        self.device_handlers: dict[str, typing.Callable] = {}
        self.processes: dict[int, Process] = {}
        # Per-kernel pid allocation keeps identical runs on fresh
        # machines identical (the veil-trace determinism contract).
        self._pids = itertools.count(1)
        self.text_ppns: list[int] = []
        self.data_ppns: list[int] = []
        self.ghcb_ppns: dict[int, int] = {}
        self.booted = False
        self.vmpl: int | None = None
        self._console_buffer = bytearray()
        # Hooks VeilS-ENC installs to stay synchronized with process VM ops.
        self.mmap_hooks: list = []
        self.munmap_hooks: list = []
        self.mprotect_hooks: list = []
        #: Hook for VCPU hotplug under Veil: called instead of the native
        #: VMSA-creation path (section 5.3 delegation).
        self.vcpu_boot_hook = None

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def boot(self, core: "VirtualCpu") -> None:
        """Bring the kernel up on ``core`` (already entered on its VMSA)."""
        if self.booted:
            raise SimulationError("kernel already booted")
        self.vmpl = core.vmpl
        self.kernel_table = self.mm.new_kernel_space()
        self._install_kernel_image(core)
        self._setup_filesystem()
        self._setup_ghcbs(core)
        if self.machine.hypervisor is not None:
            self.machine.hypervisor.interrupt_return_hook = \
                self._relayed_interrupt_handler
        self.booted = True

    def _install_kernel_image(self, core: "VirtualCpu") -> None:
        assert self.kernel_table is not None
        self.text_ppns = self.mm.alloc_frames(layout.KERNEL_TEXT_PAGES,
                                              "kernel-text")
        self.data_ppns = self.mm.alloc_frames(layout.KERNEL_DATA_PAGES,
                                              "kernel-data")
        self.mm.map_region(self.kernel_table, layout.KERNEL_TEXT_BASE,
                           self.text_ppns, writable=True, user=False,
                           nx=False)
        self.mm.map_region(self.kernel_table, layout.KERNEL_DATA_BASE,
                           self.data_ppns, writable=True, user=False,
                           nx=True)
        # Write a recognizable instruction pattern into the text pages so
        # integrity checks have real bytes to verify.
        self.mm.switch_address_space(core, self.kernel_table)
        core.regs.cpl = 0
        pattern = bytes(range(256)) * (PAGE_SIZE // 256)
        for index in range(layout.KERNEL_TEXT_PAGES):
            core.write(layout.KERNEL_TEXT_BASE + index * PAGE_SIZE, pattern)
        # Exported symbols land at fixed offsets inside the text region.
        for index in range(16):
            self.symbol_table[f"ksym_{index}"] = (
                layout.KERNEL_TEXT_BASE + 0x2000 + index * 0x100)
        self.machine.idt_handler_vaddr = layout.KERNEL_TEXT_BASE + 0x1000

    def _setup_filesystem(self) -> None:
        self.fs.mkdir("/dev")
        self.fs.mkdir("/tmp")
        self.fs.mkdir("/etc")
        self.fs.mkdir("/var")
        self.fs.mkdir("/var/log")
        console = self.fs._new_inode(InodeType.DEVICE)
        console.device = "console"
        self.fs.root.children["dev"].children["console"] = console

    def _setup_ghcbs(self, core: "VirtualCpu") -> None:
        """Allocate one shared GHCB page per core (GHCB MSR protocol)."""
        for cpu_index in range(len(self.machine.cores)):
            ppn = self.mm.alloc_frame("ghcb")
            self.machine.rmp.share(ppn)
            self.ghcb_ppns[cpu_index] = ppn
        core.wrmsr_ghcb(page_base(self.ghcb_ppns[core.cpu_index]))

    def attach_ghcb(self, core: "VirtualCpu") -> None:
        """Point ``core``'s GHCB MSR at its per-core kernel GHCB."""
        core.wrmsr_ghcb(page_base(self.ghcb_ppns[core.cpu_index]))

    # ------------------------------------------------------------------
    # Kernel execution context
    # ------------------------------------------------------------------

    def kernel_context(self, core: "VirtualCpu") -> "KernelContext":
        """Run with kernel cr3/CPL-0 on ``core`` (for non-syscall paths)."""
        assert self.kernel_table is not None
        return KernelContext(core, self.kernel_table.root_ppn)

    def charge_compute(self, cycles: int, category: str = "compute") -> None:
        """Charge kernel-side cycles to the ledger."""
        self.machine.ledger.charge(category, cycles)

    def _relayed_interrupt_handler(self, core: "VirtualCpu") -> None:
        """Handle a timer interrupt relayed from enclave context."""
        self.charge_compute(INTERRUPT_HANDLER_CYCLES, "interrupt")

    # ------------------------------------------------------------------
    # Console
    # ------------------------------------------------------------------

    def console_write(self, core: "VirtualCpu", data: bytes) -> int:
        """Buffered console driver; flushes via an I/O exit per 4 KiB."""
        self._console_buffer.extend(data)
        if len(self._console_buffer) >= CONSOLE_FLUSH_BYTES:
            self.console_flush(core)
        return len(data)

    def console_flush(self, core: "VirtualCpu") -> None:
        """Push buffered console output to the host (chunked)."""
        if not self._console_buffer:
            return
        payload = bytes(self._console_buffer)
        self._console_buffer.clear()
        # One GHCB page bounds each I/O request; flush in chunks.
        # Hex-encode the payload once and slice the string
        # per chunk -- each hypercall carries byte-identical wire data
        # to encoding chunk-by-chunk.
        chunk_size = 1536
        payload_hex = payload.hex()
        for offset in range(0, len(payload), chunk_size):
            self.hypercall_io(core, {
                "op": "io", "device": "console",
                "data_hex": payload_hex[2 * offset:
                                        2 * (offset + chunk_size)]})

    def hypercall_io(self, core: "VirtualCpu", message: dict) -> dict:
        """Issue a GHCB-mediated I/O hypercall from kernel context."""
        ghcb = core.current_ghcb()
        ghcb.write_message(self.machine.memory, message)
        core.vmgexit()
        return ghcb.read_message(self.machine.memory)

    # ------------------------------------------------------------------
    # Page state changes (PVALIDATE path, possibly delegated)
    # ------------------------------------------------------------------

    def share_page_with_host(self, core: "VirtualCpu", ppn: int) -> None:
        """Convert a private page to shared (e.g. a bounce buffer)."""
        self.mm.invalidate_page(core, ppn)
        self.hypercall_io(core, {"op": "page_state_change",
                                 "action": "share", "ppns": [ppn]})

    def accept_page_from_host(self, core: "VirtualCpu", ppn: int) -> None:
        """Convert a shared page back to private guest memory."""
        self.hypercall_io(core, {"op": "page_state_change",
                                 "action": "private", "ppns": [ppn]})
        self.mm.validate_page(core, ppn)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def create_process(self, name: str, *, stack_pages: int = 4,
                       code_pages: int = 1) -> Process:
        """Create a user process with code, stack, and stdio fds."""
        table = self.machine.create_page_table()
        self.mm.install_kernel_mappings(table)
        # Kernel text must be reachable (supervisor-only) in every address
        # space so syscalls and interrupt delivery can execute.
        table.add_window(LinearWindow(
            base_vpn=layout.vpn(layout.KERNEL_TEXT_BASE),
            count=layout.KERNEL_TEXT_PAGES, ppn_base=self.text_ppns[0],
            writable=False, user=False, nx=False))
        proc = Process(name, table, pid=next(self._pids))
        code_ppns = self.mm.alloc_frames(code_pages, "user-code")
        self.mm.map_region(table, layout.USER_CODE_BASE, code_ppns,
                           writable=False, user=True, nx=False)
        proc.add_region(VmRegion(layout.USER_CODE_BASE, code_pages,
                                 code_ppns, writable=False, executable=True,
                                 kind="code"))
        stack_base = layout.USER_STACK_TOP - stack_pages * PAGE_SIZE
        stack_ppns = self.mm.alloc_frames(stack_pages, "user-stack")
        self.mm.map_region(table, stack_base, stack_ppns, writable=True,
                           user=True, nx=True)
        proc.add_region(VmRegion(stack_base, stack_pages, stack_ppns,
                                 writable=True, executable=False,
                                 kind="stack"))
        console = self.fs.resolve("/dev/console")
        for fd in (0, 1, 2):
            proc.fds[fd] = FileDescriptor(
                "file", OpenFile(inode=console, flags=O_RDWR))
        self.processes[proc.pid] = proc
        self.scheduler.add(proc)
        return proc

    def destroy_process(self, proc: Process) -> None:
        """Tear down a process and free its frames."""
        for region in list(proc.regions.values()):
            for ppn in region.ppns:
                if self.mm.owns(ppn):
                    self.mm.free_frame(ppn)
        proc.regions.clear()
        self.scheduler.remove(proc)
        self.processes.pop(proc.pid, None)

    def syscall(self, core: "VirtualCpu", proc: Process, name: str,
                *args, **kwargs):
        """Public syscall entry point used by workloads and the SDK."""
        return self.syscalls.dispatch(core, proc, name, *args, **kwargs)

    # ------------------------------------------------------------------
    # VM-operation hooks (VeilS-ENC synchronization)
    # ------------------------------------------------------------------

    def notify_mmap(self, proc: Process, region: VmRegion) -> None:
        """Run VM-op hooks after an mmap."""
        for hook in self.mmap_hooks:
            hook(proc, region)

    def notify_munmap(self, proc: Process, region: VmRegion) -> None:
        """Run VM-op hooks after an munmap."""
        for hook in self.munmap_hooks:
            hook(proc, region)

    def notify_mprotect(self, proc: Process, addr: int, length: int,
                        prot: int) -> None:
        """Run VM-op hooks before an mprotect applies."""
        for hook in self.mprotect_hooks:
            hook(proc, addr, length, prot)

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    def register_device(self, name: str, handler) -> None:
        """Create /dev/<name> with an ioctl handler (kernel-module style)."""
        device = self.fs._new_inode(InodeType.DEVICE)
        device.device = name
        self.fs.root.children["dev"].children[name] = device
        self.device_handlers[name] = handler

    # ------------------------------------------------------------------
    # VCPU hotplug (section 5.3 delegation target)
    # ------------------------------------------------------------------

    def hotplug_vcpu(self, core: "VirtualCpu", new_vcpu_id: int) -> None:
        """Boot an additional VCPU.

        Natively the kernel (at VMPL-0) creates the VMSA itself; under Veil
        the kernel is architecturally unable to, so ``vcpu_boot_hook``
        performs a domain switch to VeilMon, which creates and starts the
        instance at DomUNT.
        """
        if self.vcpu_boot_hook is not None:
            self.vcpu_boot_hook(core, new_vcpu_id)
            return
        if self.vmpl != VMPL_MON:
            raise KernelError(1, "kernel cannot create VMSAs below VMPL-0")
        hv = self.machine.hypervisor
        assert hv is not None
        vmsa = hv._materialize_vmsa(vcpu_id=new_vcpu_id, vmpl=VMPL_MON)
        ghcb = core.current_ghcb()
        ghcb.write_message(self.machine.memory, {
            "op": "register_vmsa", "vmsa_ppn": vmsa.ppn})
        core.vmgexit()
        ghcb.write_message(self.machine.memory, {
            "op": "start_vcpu", "vcpu_id": new_vcpu_id,
            "vmpl": VMPL_MON})
        core.vmgexit()

    # ------------------------------------------------------------------
    # Compromise (threat-model entry point)
    # ------------------------------------------------------------------

    def compromise(self, core: "VirtualCpu"):
        """Model a full kernel compromise; returns attacker primitives."""
        from .vulnerable import AttackerContext
        return AttackerContext(self, core)

    def enable_default_auditing(self) -> None:
        """Install the paper's audit ruleset."""
        self.audit.set_ruleset(DEFAULT_AUDIT_RULESET)
