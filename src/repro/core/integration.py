"""Kernel-side Veil integration: the modified-kernel hooks and veil.ko.

This module models the guest-kernel changes the paper describes in
section 7:

* the kaudit hook that forwards records to VeilS-LOG;
* the ``load_module``/``free_module`` hooks that route module
  installation through VeilS-KCI (staging buffer + service call);
* the enclave kernel module (veil.ko): a /dev/veil device whose ioctls
  create, schedule, page, and destroy enclaves on behalf of processes.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..enclave.binary import EnclaveBinary
from ..enclave.host import VEIL_IOC_CREATE, VEIL_IOC_DESTROY, \
    VEIL_IOC_SCHEDULE
from ..errors import KernelError, SecurityViolation
from ..hw.memory import PAGE_SIZE, page_base
from ..kernel import layout as klayout
from ..kernel.modules import (LoadedModule, MODULE_LOAD_BASE_CYCLES,
                              MODULE_UNLOAD_BASE_CYCLES, ModuleImage)
from ..kernel.process import Process, VmRegion
from .services.enc import VeilSEnc
from .services.kci import VeilSKci
from .services.log import VeilLogSink, VeilSLog
from .switch import MonitorGateway

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu
    from ..kernel.kernel import Kernel


@dataclass
class EnclaveSetup:
    """Kernel-side record of a created enclave (per process)."""

    enclave_id: int
    proc: Process
    binary: EnclaveBinary
    measurement_hex: str
    base_vaddr: int
    layout: dict
    entry_rip: int
    ghcb_ppn: int
    ghcb_vaddr: int
    shared_vaddr: int
    shared_pages: list
    idcb_ppn: int
    region_ppns: dict = field(default_factory=dict)   # vpn -> ppn
    swap_store: dict = field(default_factory=dict)    # vpn -> (ct, tag)
    #: The shared in-enclave heap (one allocator per enclave, used by
    #: every thread runtime) and the runtime currently executing inside.
    heap: object = None
    active_runtime: object = None


class VeilKernelIntegration:
    """Binds the booted kernel to Veil's protected services."""

    def __init__(self, kernel: "Kernel", gateway: MonitorGateway, *,
                 kci: VeilSKci | None = None,
                 enc: VeilSEnc | None = None,
                 log: VeilSLog | None = None):
        self.kernel = kernel
        self.gateway = gateway
        self.kci = kci
        self.enc = enc
        self.log = log
        self.enclaves: dict[int, EnclaveSetup] = {}
        if enc is not None:
            self._register_veil_device()
            kernel.mprotect_hooks.append(self._mprotect_sync_hook)

    # ------------------------------------------------------------------
    # VeilS-KCI integration (module load/unload hooks)
    # ------------------------------------------------------------------

    def activate_kci(self, core: "VirtualCpu") -> dict:
        """Hand the kernel image over to W-xor-X enforcement."""
        if self.kci is None:
            raise KernelError(38, "KCI service not present")
        return self.gateway.call_service(core, {
            "op": "kci_activate",
            "text_ppns": self.kernel.text_ppns,
            "data_ppns": self.kernel.data_ppns,
            "symbols": self.kernel.symbol_table,
        })

    def load_module(self, core: "VirtualCpu",
                    image: ModuleImage) -> LoadedModule:
        """TOCTOU-free module install through VeilS-KCI (section 6.1)."""
        loader = self.kernel.module_loader
        if image.name in loader.loaded:
            raise KernelError(17, f"module {image.name} already loaded")
        self.kernel.charge_compute(MODULE_LOAD_BASE_CYCLES, "module")
        # Allocation stays with the kernel; install happens in DomSER.
        vaddr, ppns = loader.allocate_region(image)
        staging_ppns = self.kernel.mm.alloc_frames(
            image.text_pages, "module-staging")
        with self.kernel.kernel_context(core) as kcore:
            offset = 0
            for ppn in staging_ppns:
                chunk = image.text[offset:offset + PAGE_SIZE]
                if chunk:
                    kcore.write(klayout.direct_map_vaddr(page_base(ppn)),
                                chunk)
                offset += PAGE_SIZE
        self.gateway.call_service(core, {
            "op": "kci_load_module",
            "name": image.name,
            "text_len": len(image.text),
            "staging_ppns": staging_ppns,
            "relocations": [(r.offset, r.symbol)
                            for r in image.relocations],
            "signature_hex": image.signature.hex(),
            "extra_data_pages": image.extra_data_pages,
            "vaddr": vaddr,
            "region_ppns": ppns,
        })
        for ppn in staging_ppns:
            self.kernel.mm.free_frame(ppn)
        # Map the installed (already write-protected) region.
        self.kernel.mm.map_region(self.kernel.kernel_table, vaddr, ppns,
                                  writable=False, user=False, nx=False)
        module = LoadedModule(image=image, vaddr=vaddr, ppns=ppns,
                              loaded_by="veils-kci")
        loader.loaded[image.name] = module
        self.kernel.audit.log_event(core, "module_load",
                                    {"name": image.name, "via": "kci"})
        return module

    def unload_module(self, core: "VirtualCpu", name: str) -> None:
        """Unload a KCI-installed module and free its region."""
        loader = self.kernel.module_loader
        module = loader.loaded.pop(name, None)
        if module is None:
            raise KernelError(2, f"module {name} not loaded")
        self.kernel.charge_compute(MODULE_UNLOAD_BASE_CYCLES, "module")
        self.gateway.call_service(core, {"op": "kci_unload_module",
                                         "name": name})
        self.kernel.mm.unmap_region(self.kernel.kernel_table,
                                    module.vaddr, len(module.ppns))
        for ppn in module.ppns:
            self.kernel.mm.free_frame(ppn)
        self.kernel.audit.log_event(core, "module_unload",
                                    {"name": name, "via": "kci"})

    # ------------------------------------------------------------------
    # VeilS-LOG integration
    # ------------------------------------------------------------------

    def enable_protected_logging(self, ruleset=None) -> VeilLogSink:
        """Route kaudit records into VeilS-LOG."""
        if self.log is None:
            raise KernelError(38, "LOG service not present")
        from ..kernel.audit import DEFAULT_AUDIT_RULESET
        sink = VeilLogSink(self.gateway, self.log)
        self.kernel.audit.set_sink(sink)
        self.kernel.audit.set_ruleset(ruleset or DEFAULT_AUDIT_RULESET)
        return sink

    # ------------------------------------------------------------------
    # veil.ko: the enclave kernel module
    # ------------------------------------------------------------------

    def _register_veil_device(self) -> None:
        self.kernel.register_device("veil", self._veil_ioctl)

    def _veil_ioctl(self, core: "VirtualCpu", proc: Process,
                    request: int, arg):
        if request == VEIL_IOC_CREATE:
            setup = self.create_enclave(core, proc, **arg)
            return setup.enclave_id
        if request == VEIL_IOC_DESTROY:
            self.destroy_enclave(core, int(arg))
            return 0
        if request == VEIL_IOC_SCHEDULE:
            self.schedule_enclave(core, int(arg))
            return 0
        raise KernelError(25, f"veil.ko: unknown ioctl {request:#x}")

    def create_enclave(self, core: "VirtualCpu", proc: Process, *,
                       binary: EnclaveBinary,
                       shared_pages: int = 8) -> EnclaveSetup:
        """Lay out, install, and finalize an enclave for ``proc``."""
        if self.enc is None:
            raise KernelError(38, "ENC service not present")
        base = klayout.ENCLAVE_BASE
        layout = binary.layout(base)
        if base + binary.total_pages * PAGE_SIZE > \
                base + klayout.ENCLAVE_MAX_BYTES:
            raise KernelError(12, "enclave exceeds the enclave window")
        pages_arg = []
        region_ppns: dict[int, int] = {}
        with self.kernel.kernel_context(core) as kcore:
            for name, (vaddr, pages, writable, executable) in \
                    layout.items():
                ppns = self.kernel.mm.alloc_frames(pages, f"enc-{name}")
                blob = {"code": binary.code, "data": binary.data}.get(
                    name, b"")
                for index, ppn in enumerate(ppns):
                    self.kernel.machine.memory.zero_page(ppn)
                    content = blob[index * PAGE_SIZE:
                                   (index + 1) * PAGE_SIZE]
                    if content:
                        kcore.write(
                            klayout.direct_map_vaddr(page_base(ppn)),
                            content)
                    vpn = (vaddr >> 12) + index
                    pages_arg.append((vpn, ppn, writable, executable))
                    region_ppns[vpn] = ppn
                self.kernel.mm.map_region(proc.page_table, vaddr, ppns,
                                          writable=writable, user=True,
                                          nx=not executable)
                proc.add_region(VmRegion(vaddr, pages, ppns,
                                         writable=writable,
                                         executable=executable,
                                         kind=f"enclave-{name}"))
            # Shared staging region (ocall buffers), ordinary user memory.
            shared_vaddr = proc.reserve_mmap_range(shared_pages)
            shared_ppns = self.kernel.mm.alloc_frames(shared_pages,
                                                      "enc-shared")
            self.kernel.mm.map_region(proc.page_table, shared_vaddr,
                                      shared_ppns, writable=True,
                                      user=True, nx=True)
            proc.add_region(VmRegion(shared_vaddr, shared_pages,
                                     shared_ppns, writable=True,
                                     executable=False, kind="enc-shared"))
            # Per-thread GHCB: shared with the hypervisor, user-mapped.
            ghcb_ppn = self.kernel.mm.alloc_frame("enc-ghcb")
            self.kernel.share_page_with_host(kcore, ghcb_ppn)
            ghcb_vaddr = proc.reserve_mmap_range(1)
            proc.page_table.map(ghcb_vaddr >> 12, ghcb_ppn, writable=True,
                                user=True, nx=True)
        idcb_vaddr = layout["idcb"][0]
        idcb_ppn = region_ppns[idcb_vaddr >> 12]
        entry_rip = layout["code"][0] + binary.entry_offset
        shared_list = [((shared_vaddr >> 12) + i, ppn)
                       for i, ppn in enumerate(shared_ppns)]
        reply = self.gateway.call_service(core, {
            "op": "enc_finalize",
            "pid": proc.pid,
            "vcpu_id": core.cpu_index,
            "base_vaddr": base,
            "entry_rip": entry_rip,
            "pages": pages_arg,
            "shared_pages": shared_list,
            "ghcb_ppn": ghcb_ppn,
            "ghcb_vaddr": ghcb_vaddr,
            "idcb_ppn": idcb_ppn,
        })
        setup = EnclaveSetup(
            enclave_id=int(reply["enclave_id"]), proc=proc, binary=binary,
            measurement_hex=str(reply["measurement_hex"]),
            base_vaddr=base, layout=layout, entry_rip=entry_rip,
            ghcb_ppn=ghcb_ppn, ghcb_vaddr=ghcb_vaddr,
            shared_vaddr=shared_vaddr,
            shared_pages=list(shared_ppns), idcb_ppn=idcb_ppn,
            region_ppns=region_ppns)
        self.enclaves[setup.enclave_id] = setup
        proc.enclave = setup            # type: ignore[assignment]
        return setup

    def schedule_enclave(self, core: "VirtualCpu", enclave_id: int,
                         vcpu_id: int | None = None,
                         ghcb_ppn: int | None = None) -> None:
        """OS scheduler step: register the enclave thread's VMSA and
        point the live GHCB MSR at its user-mapped GHCB (section 6.2)."""
        setup = self._setup(enclave_id)
        request = {"op": "enc_schedule", "enclave_id": enclave_id}
        if vcpu_id is not None:
            request["vcpu_id"] = vcpu_id
        self.gateway.call_service(core, request)
        target = self.kernel.machine.cores[
            vcpu_id if vcpu_id is not None else core.cpu_index]
        with self.kernel.kernel_context(target) as kcore:
            kcore.wrmsr_ghcb(page_base(ghcb_ppn if ghcb_ppn is not None
                                       else setup.ghcb_ppn))

    def add_enclave_thread(self, core: "VirtualCpu", enclave_id: int,
                           vcpu_id: int) -> int:
        """veil.ko extension: create an enclave thread pinned to another
        VCPU (allocates + maps its per-thread GHCB, then asks the
        service to create the VMSA).  Returns the new GHCB's ppn."""
        setup = self._setup(enclave_id)
        if self.kernel.machine.cores[vcpu_id].instance is None:
            self.kernel.hotplug_vcpu(core, vcpu_id)
        with self.kernel.kernel_context(core) as kcore:
            ghcb_ppn = self.kernel.mm.alloc_frame("enc-thread-ghcb")
            self.kernel.share_page_with_host(kcore, ghcb_ppn)
            ghcb_vaddr = setup.proc.reserve_mmap_range(1)
            setup.proc.page_table.map(ghcb_vaddr >> 12, ghcb_ppn,
                                      writable=True, user=True, nx=True)
        self.gateway.call_service(core, {
            "op": "enc_add_thread", "enclave_id": enclave_id,
            "vcpu_id": vcpu_id, "ghcb_ppn": ghcb_ppn,
            "ghcb_vaddr": ghcb_vaddr, "entry_rip": setup.entry_rip})
        return ghcb_ppn

    def destroy_enclave(self, core: "VirtualCpu", enclave_id: int) -> None:
        """Tear down an enclave (service scrubs + releases)."""
        setup = self.enclaves.pop(enclave_id, None)
        if setup is None:
            raise KernelError(22, f"no enclave {enclave_id}")
        self.gateway.call_service(core, {"op": "enc_destroy",
                                         "enclave_id": enclave_id})
        setup.proc.enclave = None

    def _setup(self, enclave_id: int) -> EnclaveSetup:
        setup = self.enclaves.get(enclave_id)
        if setup is None:
            raise KernelError(22, f"no enclave {enclave_id}")
        return setup

    # ------------------------------------------------------------------
    # Collaborative demand paging (kernel side)
    # ------------------------------------------------------------------

    def evict_enclave_page(self, core: "VirtualCpu", enclave_id: int,
                           vaddr: int) -> None:
        """Swap one enclave page out (encrypted) and free its frame."""
        setup = self._setup(enclave_id)
        vpn = vaddr >> 12
        ppn = setup.region_ppns.get(vpn)
        if ppn is None:
            raise KernelError(22, f"vaddr {vaddr:#x} not an enclave page")
        staging_ppn = self.kernel.mm.alloc_frame("swap-staging")
        reply = self.gateway.call_service(core, {
            "op": "enc_evict_page", "enclave_id": enclave_id, "vpn": vpn,
            "staging_ppn": staging_ppn})
        with self.kernel.kernel_context(core) as kcore:
            ciphertext = kcore.read(
                klayout.direct_map_vaddr(page_base(staging_ppn)),
                PAGE_SIZE)
        setup.swap_store[vpn] = (ciphertext, str(reply["tag_hex"]))
        self.kernel.mm.free_frame(staging_ppn)
        self.kernel.mm.free_frame(ppn)
        del setup.region_ppns[vpn]
        setup.proc.page_table.unmap(vpn)

    def restore_enclave_page(self, core: "VirtualCpu", enclave_id: int,
                             vaddr: int) -> None:
        """Swap a page back in after an enclave page fault."""
        setup = self._setup(enclave_id)
        vpn = vaddr >> 12
        stored = setup.swap_store.pop(vpn, None)
        if stored is None:
            raise KernelError(22, f"no swapped page at {vaddr:#x}")
        ciphertext, tag_hex = stored
        staging_ppn = self.kernel.mm.alloc_frame("swap-staging")
        new_ppn = self.kernel.mm.alloc_frame("enc-restored")
        with self.kernel.kernel_context(core) as kcore:
            kcore.write(klayout.direct_map_vaddr(page_base(staging_ppn)),
                        ciphertext)
        self.gateway.call_service(core, {
            "op": "enc_restore_page", "enclave_id": enclave_id,
            "vpn": vpn, "staging_ppn": staging_ppn, "new_ppn": new_ppn,
            "tag_hex": tag_hex})
        self.kernel.mm.free_frame(staging_ppn)
        setup.region_ppns[vpn] = new_ppn
        setup.proc.page_table.map(vpn, new_ppn, writable=True, user=True,
                                  nx=True)

    # ------------------------------------------------------------------
    # mprotect synchronization hook
    # ------------------------------------------------------------------

    def _mprotect_sync_hook(self, proc: Process, addr: int, length: int,
                            prot: int) -> None:
        """Kernel mprotect hook: enclave regions are refused to the OS;
        other regions are synced into the protected page table."""
        setup = getattr(proc, "enclave", None)
        if not isinstance(setup, EnclaveSetup):
            return
        from ..kernel.syscalls import PROT_EXEC, PROT_WRITE
        end = setup.base_vaddr + setup.binary.total_pages * PAGE_SIZE
        if setup.base_vaddr <= addr < end:
            raise SecurityViolation(
                "OS-side mprotect on enclave region refused")
        core = self.kernel.machine.cores[0]
        num_pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        self.gateway.call_service(core, {
            "op": "enc_sync_mprotect", "enclave_id": setup.enclave_id,
            "vaddr": addr, "num_pages": num_pages,
            "writable": bool(prot & PROT_WRITE),
            "executable": bool(prot & PROT_EXEC)})
