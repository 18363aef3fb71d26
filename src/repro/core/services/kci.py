"""VeilS-KCI: kernel code integrity (paper section 6.1).

Two mechanisms:

1. **W xor X over kernel memory at DomUNT** -- ``RMPADJUST`` removes write
   permission from every kernel text page and supervisor-execute from
   every kernel data page.  Even a kernel write gadget that flips its own
   page-table bits cannot bypass this (the RMP is checked after the page
   tables).

2. **TOCTOU-free module loading** -- everything except memory allocation
   moves into the service: the module bytes are deep-copied out of OS
   memory *before* the signature check, and the same protected copy is
   installed, relocated against a protected symbol table, and
   write-protected via RMPADJUST.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from ...crypto import RsaPublicKey
from ...errors import SecurityViolation
from ...hw.memory import PAGE_SIZE, page_base
from ...hw.rmp import VMPL_UNT, Access
from .base import ProtectedService, traced

if typing.TYPE_CHECKING:
    from ...hw.vcpu import VirtualCpu
    from ..veilmon import VeilMon

#: Kernel text: readable + supervisor-executable, never writable.
TEXT_PERMS = Access.READ | Access.SEXEC
#: Kernel data: read/write, never supervisor-executable.
DATA_PERMS = Access.READ | Access.WRITE

#: Service-side processing per module operation (parsing, bookkeeping).
MODULE_SERVICE_CYCLES = 1500


@dataclass
class ProtectedModule:
    """Service-side record of a module it installed."""

    name: str
    vaddr: int
    text_ppns: list
    data_ppns: list
    text_hash_hex: str


class VeilSKci(ProtectedService):
    """The kernel-code-integrity protected service."""

    name = "veils-kci"

    def __init__(self, veilmon: "VeilMon",
                 trusted_key: RsaPublicKey | None = None):
        super().__init__(veilmon)
        self.trusted_key = trusted_key
        self.active = False
        #: Protected copy of the kernel's exported symbol table.
        self.symbol_table: dict[str, int] = {}
        self.kernel_text_ppns: list = []
        self.kernel_data_ppns: list = []
        self.modules: dict[str, ProtectedModule] = {}

    def handlers(self) -> dict:
        """DomSER request-dispatch table for this service."""
        return {
            "kci_activate": self.handle_activate,
            "kci_load_module": self.handle_load_module,
            "kci_unload_module": self.handle_unload_module,
        }

    # ------------------------------------------------------------------
    # Activation: W xor X over the kernel image
    # ------------------------------------------------------------------

    @traced("activate")
    def handle_activate(self, core: "VirtualCpu", request: dict) -> dict:
        """Apply W^X over the kernel image; copy the symbol table."""
        text_ppns = [int(p) for p in request["text_ppns"]]
        data_ppns = [int(p) for p in request["data_ppns"]]
        self.sanitize(text_ppns)
        self.sanitize(data_ppns)
        for ppn in text_ppns:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT, perms=TEXT_PERMS)
        for ppn in data_ppns:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT, perms=DATA_PERMS)
        # Deep-copy the exported symbol table into protected memory so
        # later relocation cannot be redirected by the (possibly
        # compromised) kernel.
        self.symbol_table = {str(k): int(v)
                             for k, v in request["symbols"].items()}
        self.kernel_text_ppns = text_ppns
        self.kernel_data_ppns = data_ppns
        self.active = True
        self.request_count += 1
        return {"status": "ok", "text_pages": len(text_ppns),
                "data_pages": len(data_ppns)}

    # ------------------------------------------------------------------
    # Module loading (TOCTOU-free)
    # ------------------------------------------------------------------

    def _read_staging(self, core: "VirtualCpu", staging_ppns: list,
                      length: int) -> bytes:
        """Deep-copy the module image out of OS memory (the copy the
        signature is checked against is the copy that gets installed)."""
        self.sanitize(staging_ppns)
        blob = bytearray()
        remaining = length
        for ppn in staging_ppns:
            take = min(remaining, PAGE_SIZE)
            blob.extend(self.read_page(core, int(ppn), 0, take))
            remaining -= take
            if remaining <= 0:
                break
        if remaining > 0:
            raise SecurityViolation("staging buffer shorter than claimed")
        return bytes(blob)

    @traced("load_module")
    def handle_load_module(self, core: "VirtualCpu", request: dict) -> dict:
        """TOCTOU-free verify + install + write-protect a module."""
        from ...kernel.modules import ModuleImage, Relocation
        if not self.active:
            raise SecurityViolation("VeilS-KCI not activated")
        name = str(request["name"])
        if name in self.modules:
            raise SecurityViolation(f"module {name} already installed")
        self.charge(MODULE_SERVICE_CYCLES)
        text_len = int(request["text_len"])
        staging_ppns = [int(p) for p in request["staging_ppns"]]
        text = self._read_staging(core, staging_ppns, text_len)
        relocations = tuple(Relocation(int(off), str(sym))
                            for off, sym in request["relocations"])
        image = ModuleImage(
            name=name, text=text, relocations=relocations,
            signature=bytes.fromhex(request["signature_hex"]),
            extra_data_pages=int(request.get("extra_data_pages", 0)))
        if self.trusted_key is None:
            raise SecurityViolation("no trusted module key provisioned")
        self.charge(self.machine.cost.signature_verify, "crypto")
        self.trusted_key.verify(image.signed_blob(), image.signature)

        # Install into the OS-allocated region (allocation is the one step
        # left to the kernel); the target pages are sanitized first.
        vaddr = int(request["vaddr"])
        region_ppns = [int(p) for p in request["region_ppns"]]
        self.sanitize(region_ppns)
        text_pages = image.text_pages
        text_ppns = region_ppns[:text_pages]
        data_ppns = region_ppns[text_pages:]
        offset = 0
        for ppn in text_ppns:
            chunk = text[offset:offset + PAGE_SIZE]
            core.write_phys(page_base(ppn), chunk)
            offset += PAGE_SIZE
        # Relocate using the protected symbol table.
        for reloc in relocations:
            target = self.symbol_table.get(reloc.symbol)
            if target is None:
                raise SecurityViolation(
                    f"module references unknown symbol {reloc.symbol!r}")
            page_index, in_page = divmod(reloc.offset, PAGE_SIZE)
            core.write_phys(page_base(text_ppns[page_index]) + in_page,
                            target.to_bytes(8, "little"))
        # Write-protect the prepared text; data pages stay RW but lose
        # supervisor-execute.
        for ppn in text_ppns:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT, perms=TEXT_PERMS)
        for ppn in data_ppns:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT, perms=DATA_PERMS)
        from ...crypto import sha256_hex
        self.modules[name] = ProtectedModule(
            name=name, vaddr=vaddr, text_ppns=text_ppns,
            data_ppns=data_ppns, text_hash_hex=sha256_hex(text))
        self.request_count += 1
        return {"status": "ok", "vaddr": vaddr,
                "installed_pages": len(region_ppns)}

    @traced("unload_module")
    def handle_unload_module(self, core: "VirtualCpu",
                             request: dict) -> dict:
        """Release a module region back to ordinary kernel memory."""
        name = str(request["name"])
        module = self.modules.pop(name, None)
        if module is None:
            raise SecurityViolation(f"module {name} not installed by KCI")
        self.charge(MODULE_SERVICE_CYCLES)
        # Return the region to ordinary kernel memory permissions.
        for ppn in module.text_ppns + module.data_ppns:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT,
                           perms=Access.all())
        self.request_count += 1
        return {"status": "ok"}
