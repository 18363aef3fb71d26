"""VeilS-ENC: shielded program execution (paper section 6.2).

Provides SGX-style in-process enclaves inside the CVM:

* **Initialization & measurement** -- the OS lays out the enclave and
  invokes finalize; the service verifies the two layout invariants
  (one-to-one virtual/physical mapping; physical pages disjoint across
  enclaves), clones the page table into protected memory, revokes DomUNT
  access with ``RMPADJUST``, and measures contents + metadata.
* **Entry/exit** -- through the user-mapped GHCB registered for
  DomUNT <-> DomENC switches only.
* **Collaborative demand paging** -- pages leave the enclave encrypted
  under a per-enclave key with a freshness counter bound into the AEAD,
  and return only if the counter-specific tag verifies.
* **Permission changes** -- enclave-region changes come from the enclave
  itself; the OS may only sync non-enclave regions into the protected
  page table.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field

from ...crypto import (MeasurementChain, cipher, generate_key,
                       page_measurement)
from ...errors import SecurityViolation
from ...hw.memory import PAGE_SIZE, page_base
from ...hw.pagetable import GuestPageTable
from ...hw.rmp import VMPL_ENC, VMPL_SER, VMPL_UNT, Access
from ..idcb import Idcb
from .base import ProtectedService, traced

if typing.TYPE_CHECKING:
    from ...hw.vcpu import VirtualCpu
    from ...hw.vmsa import Vmsa
    from ..veilmon import VeilMon

#: Service-side work per lifecycle operation.
FINALIZE_BASE_CYCLES = 5000
PAGING_BASE_CYCLES = 1200

_CODE_PERMS = Access.READ | Access.UEXEC
_DATA_PERMS = Access.READ | Access.WRITE


@dataclass
class SwapRecord:
    """Integrity state for one evicted enclave page."""

    counter: int
    writable: bool
    executable: bool


@dataclass
class EnclaveRecord:
    """Service-side state for one live enclave."""

    enclave_id: int
    pid: int
    vcpu_id: int
    base_vaddr: int
    num_pages: int
    #: vpn -> (ppn, writable, executable) for resident enclave pages.
    pages: dict = field(default_factory=dict)
    page_table: GuestPageTable | None = None
    vmsa: "Vmsa | None" = None
    #: Per-VCPU thread instances (section 7's multi-threading extension):
    #: vcpu_id -> (Vmsa, ghcb_ppn).  The primary thread is also here.
    threads: dict = field(default_factory=dict)
    #: Regions explicitly shared with mutually-trusting enclaves:
    #: peer enclave_id -> set of ppns (section 10's Chancel-style
    #: sharing without SFI).
    shared_grants: dict = field(default_factory=dict)
    ghcb_ppn: int = 0
    shared_ppns: tuple = ()
    measurement_hex: str = ""
    #: Key schedule of the enclave's page-swap key, built once here.
    key: "cipher.KeySchedule | None" = None
    swapped: dict = field(default_factory=dict)     # vpn -> SwapRecord
    counter_source: itertools.count = field(
        default_factory=lambda: itertools.count(1))
    idcb: Idcb | None = None
    destroyed: bool = False

    @property
    def end_vaddr(self) -> int:
        return self.base_vaddr + self.num_pages * PAGE_SIZE

    def contains_vaddr(self, vaddr: int) -> bool:
        """Whether ``vaddr`` falls inside the enclave window."""
        return self.base_vaddr <= vaddr < self.end_vaddr


class VeilSEnc(ProtectedService):
    """The shielded-execution protected service."""

    name = "veils-enc"

    def __init__(self, veilmon: "VeilMon"):
        super().__init__(veilmon)
        self._ids = itertools.count(1)
        self.enclaves: dict[int, EnclaveRecord] = {}
        #: Global physical-page ownership (invariant 2: disjoint sets).
        self.ppn_owner: dict[int, int] = {}

    def handlers(self) -> dict:
        """DomSER request-dispatch table for this service."""
        return {
            "enc_finalize": self.handle_finalize,
            "enc_schedule": self.handle_schedule,
            "enc_evict_page": self.handle_evict_page,
            "enc_restore_page": self.handle_restore_page,
            "enc_sync_mprotect": self.handle_sync_mprotect,
            "enc_mprotect": self.handle_enclave_mprotect,
            "enc_destroy": self.handle_destroy,
            "enc_add_thread": self.handle_add_thread,
            "enc_grant_share": self.handle_grant_share,
            "enc_accept_share": self.handle_accept_share,
            "enc_flush_cpu_state": self.handle_flush_cpu_state,
            "enc_report_measurement": self.handle_report_measurement,
        }

    @traced("report_measurement")
    def handle_report_measurement(self, core: "VirtualCpu",
                                  request: dict) -> dict:
        """Seal an enclave's measurement for the remote user.

        Section 6.2: "The measurement is sent to the user through
        VeilMon's secure user communication channel."  The OS relays the
        opaque record; it cannot forge one (no channel key)."""
        record = self._record(request["enclave_id"])
        wire = self.veilmon.channel_send({
            "enclave_id": record.enclave_id,
            "measurement_hex": record.measurement_hex})
        return {"status": "ok", "record_hex": wire.hex()}

    @traced("flush_cpu_state")
    def handle_flush_cpu_state(self, core: "VirtualCpu",
                               request: dict) -> dict:
        """Side-channel mitigation (section 10, eOPF-style): VeilS-ENC,
        running privileged, executes WBINVD so an enclave's cache/TLB
        footprint cannot be probed after it exits.  Only the enclave
        itself may request its flush (via its own IDCB)."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_ENC:
            raise SecurityViolation(
                "CPU-state flushes must come from the enclave")
        self._record(request["enclave_id"])
        core.wbinvd()
        return {"status": "ok"}

    def _record(self, enclave_id) -> EnclaveRecord:
        record = self.enclaves.get(int(enclave_id))
        if record is None or record.destroyed:
            raise SecurityViolation(f"no live enclave {enclave_id}")
        return record

    # ------------------------------------------------------------------
    # Finalization (initialization + measurement)
    # ------------------------------------------------------------------

    @traced("finalize")
    def handle_finalize(self, core: "VirtualCpu", request: dict) -> dict:
        """Lock down and measure an OS-prepared enclave region."""
        self.charge(FINALIZE_BASE_CYCLES)
        pid = int(request["pid"])
        vcpu_id = int(request["vcpu_id"])
        base_vaddr = int(request["base_vaddr"])
        entry_rip = int(request["entry_rip"])
        ghcb_ppn = int(request["ghcb_ppn"])
        shared = [(int(v), int(p)) for v, p in request["shared_pages"]]
        mapping = [(int(v), int(p), bool(w), bool(x))
                   for v, p, w, x in request["pages"]]

        # ---- invariant checks (section 6.2) ----------------------------
        vpns = [v for v, _p, _w, _x in mapping]
        ppns = [p for _v, p, _w, _x in mapping]
        if len(set(vpns)) != len(vpns) or len(set(ppns)) != len(ppns):
            raise SecurityViolation(
                "enclave layout violates one-to-one mapping invariant")
        self.sanitize(ppns)
        for ppn in ppns:
            owner = self.ppn_owner.get(ppn)
            if owner is not None:
                raise SecurityViolation(
                    f"page {ppn:#x} already belongs to enclave {owner} "
                    "(disjointness invariant)")

        enclave_id = next(self._ids)
        record = EnclaveRecord(
            enclave_id=enclave_id, pid=pid, vcpu_id=vcpu_id,
            base_vaddr=base_vaddr, num_pages=len(mapping),
            ghcb_ppn=ghcb_ppn,
            shared_ppns=tuple(p for _v, p in shared),
            key=cipher.KeySchedule(generate_key()))

        # ---- clone the page table into protected memory ------------------
        root_ppn = self.veilmon.heap_alloc(1)[0]
        table = GuestPageTable(root_ppn, cost=self.machine.cost,
                               ledger=self.machine.ledger)
        self.machine.register_page_table(table)
        for vpn, ppn, writable, executable in mapping:
            table.map(vpn, ppn, writable=writable, user=True,
                      nx=not executable)
        for vpn, ppn in shared:
            table.map(vpn, ppn, writable=True, user=True, nx=True)
        table.map(ghcb_ppn_vpn(request), ghcb_ppn, writable=True,
                  user=True, nx=True)
        record.page_table = table

        # ---- revoke DomUNT access, grant DomENC --------------------------
        for vpn, ppn, writable, executable in mapping:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT,
                           perms=Access.NONE)
            perms = _CODE_PERMS if executable else _DATA_PERMS
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_ENC, perms=perms)
            record.pages[vpn] = (ppn, writable, executable)
            self.ppn_owner[ppn] = enclave_id
        for _vpn, ppn in shared:
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_ENC,
                           perms=_DATA_PERMS)

        # ---- measurement (contents + metadata, layout order) -------------
        chain = MeasurementChain()
        for vpn, ppn, writable, executable in mapping:
            content = self.read_page(core, ppn)
            self.charge(self.machine.cost.sha256_cost(len(content)),
                        "crypto")
            chain.extend("enc-page", page_measurement(
                content, vpn=vpn, writable=writable,
                executable=executable))
        record.measurement_hex = chain.hexdigest

        # ---- enclave <-> service IDCB (in enclave memory) -----------------
        idcb_ppn = int(request["idcb_ppn"])
        if self.ppn_owner.get(idcb_ppn) != enclave_id:
            raise SecurityViolation("enclave IDCB must be enclave memory")
        record.idcb = Idcb(idcb_ppn, low_vmpl=VMPL_ENC,
                           high_vmpl=VMPL_SER)

        # ---- create the DomENC VCPU instance via VeilMon -------------------
        reply = self.veilmon.ser_call_monitor(core, {
            "op": "create_vmsa", "vcpu_id": vcpu_id, "vmpl": VMPL_ENC,
            "cr3": table.root_ppn, "rip": entry_rip, "cpl": 3,
            "ghcb_gpa": page_base(ghcb_ppn)})
        if reply.get("status") != "ok":
            raise SecurityViolation(f"VMSA creation failed: {reply}")
        record.vmsa = self.machine.vmsa_objects[int(reply["vmsa_ppn"])]
        record.threads[vcpu_id] = (record.vmsa, ghcb_ppn)

        # ---- instruct the hypervisor about the user GHCB -------------------
        self.veilmon.hv_register_ghcb(ghcb_ppn, vcpu_id, {
            (VMPL_UNT, VMPL_ENC), (VMPL_ENC, VMPL_UNT),
            (VMPL_ENC, VMPL_SER), (VMPL_SER, VMPL_ENC)})

        self.enclaves[enclave_id] = record
        self.request_count += 1
        return {"status": "ok", "enclave_id": enclave_id,
                "measurement_hex": record.measurement_hex}

    # ------------------------------------------------------------------
    # Scheduling (multiplexing DomENC among enclaves)
    # ------------------------------------------------------------------

    @traced("schedule")
    def handle_schedule(self, core: "VirtualCpu", request: dict) -> dict:
        """Register an enclave thread's VMSA as the DomENC instance for
        its core (the OS scheduler requests this before resuming it)."""
        record = self._record(request["enclave_id"])
        vcpu_id = int(request.get("vcpu_id", record.vcpu_id))
        thread = record.threads.get(vcpu_id)
        if thread is None:
            raise SecurityViolation(
                f"enclave {record.enclave_id} has no thread on "
                f"vcpu {vcpu_id}")
        vmsa, _ghcb = thread
        self.veilmon.hv.vmsas[(vcpu_id, VMPL_ENC)] = vmsa
        return {"status": "ok"}

    @traced("add_thread")
    def handle_add_thread(self, core: "VirtualCpu",
                          request: dict) -> dict:
        """Create an additional enclave thread pinned to another VCPU
        (the multi-threading extension sketched in section 7: VeilMon
        creates a per-VCPU VMSA sharing the protected page table)."""
        record = self._record(request["enclave_id"])
        vcpu_id = int(request["vcpu_id"])
        if vcpu_id in record.threads:
            raise SecurityViolation(
                f"enclave already has a thread on vcpu {vcpu_id}")
        if vcpu_id >= len(self.machine.cores):
            raise SecurityViolation(f"no such core {vcpu_id}")
        ghcb_ppn = int(request["ghcb_ppn"])
        entry_rip = int(request["entry_rip"])
        assert record.page_table is not None
        ghcb_vaddr = int(request["ghcb_vaddr"])
        record.page_table.map(ghcb_vaddr >> 12, ghcb_ppn, writable=True,
                              user=True, nx=True)
        reply = self.veilmon.ser_call_monitor(core, {
            "op": "create_vmsa", "vcpu_id": vcpu_id, "vmpl": VMPL_ENC,
            "cr3": record.page_table.root_ppn, "rip": entry_rip,
            "cpl": 3, "ghcb_gpa": page_base(ghcb_ppn)})
        if reply.get("status") != "ok":
            raise SecurityViolation(f"thread VMSA creation failed: "
                                    f"{reply}")
        vmsa = self.machine.vmsa_objects[int(reply["vmsa_ppn"])]
        record.threads[vcpu_id] = (vmsa, ghcb_ppn)
        self.veilmon.hv_register_ghcb(ghcb_ppn, vcpu_id, {
            (VMPL_UNT, VMPL_ENC), (VMPL_ENC, VMPL_UNT),
            (VMPL_ENC, VMPL_SER), (VMPL_SER, VMPL_ENC)})
        self.request_count += 1
        return {"status": "ok", "vcpu_id": vcpu_id}

    # ------------------------------------------------------------------
    # Consensual enclave-to-enclave sharing (section 10)
    # ------------------------------------------------------------------

    @traced("grant_share")
    def handle_grant_share(self, core: "VirtualCpu",
                           request: dict) -> dict:
        """Owner enclave grants a peer access to one of its regions.

        Must arrive from the enclave itself (its IDCB), never the OS:
        sharing is strictly consensual between mutually-trusting
        enclaves."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_ENC:
            raise SecurityViolation("share grants must come from the "
                                    "owning enclave")
        record = self._record(request["enclave_id"])
        peer_id = int(request["peer_id"])
        self._record(peer_id)                 # peer must be live
        vaddr = int(request["vaddr"])
        num_pages = int(request["num_pages"])
        ppns = set()
        for index in range(num_pages):
            addr = vaddr + index * PAGE_SIZE
            if not record.contains_vaddr(addr):
                raise SecurityViolation("grant outside enclave region")
            entry = record.pages.get(addr >> 12)
            if entry is None:
                raise SecurityViolation(
                    f"grant of non-resident page {addr:#x}")
            ppns.add(entry[0])
        record.shared_grants.setdefault(peer_id, set()).update(ppns)
        return {"status": "ok", "pages": len(ppns)}

    @traced("accept_share")
    def handle_accept_share(self, core: "VirtualCpu",
                            request: dict) -> dict:
        """Peer enclave accepts a grant: the owner's pages are mapped
        into the peer's protected page table at a chosen window.

        Both enclaves run at VMPL-2, so the RMP already permits the
        access; isolation normally comes from disjoint page tables, and
        this is the *deliberate* exception VeilS-ENC mediates."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_ENC:
            raise SecurityViolation("share accepts must come from the "
                                    "accepting enclave")
        peer = self._record(request["enclave_id"])
        owner = self._record(request["owner_id"])
        grant = owner.shared_grants.get(peer.enclave_id)
        if not grant:
            raise SecurityViolation(
                f"enclave {owner.enclave_id} has not granted "
                f"{peer.enclave_id} anything")
        owner_vaddr = int(request["owner_vaddr"])
        map_vaddr = int(request["map_vaddr"])
        num_pages = int(request["num_pages"])
        assert peer.page_table is not None
        mapped = 0
        for index in range(num_pages):
            src = owner.pages.get((owner_vaddr >> 12) + index)
            if src is None:
                raise SecurityViolation("granted page no longer resident")
            ppn, writable, _x = src
            if ppn not in grant:
                raise SecurityViolation(
                    f"page {ppn:#x} was not granted to enclave "
                    f"{peer.enclave_id}")
            peer.page_table.map((map_vaddr >> 12) + index, ppn,
                                writable=writable, user=True, nx=True)
            mapped += 1
        self.request_count += 1
        return {"status": "ok", "mapped": mapped}

    # ------------------------------------------------------------------
    # Collaborative demand paging
    # ------------------------------------------------------------------

    @traced("evict_page")
    def handle_evict_page(self, core: "VirtualCpu", request: dict) -> dict:
        """Encrypt + integrity-protect a page, then release it to the OS."""
        record = self._record(request["enclave_id"])
        vpn = int(request["vpn"])
        staging_ppn = int(request["staging_ppn"])
        self.sanitize([staging_ppn])
        entry = record.pages.get(vpn)
        if entry is None:
            raise SecurityViolation(f"vpn {vpn:#x} not resident")
        if record.idcb is not None and entry[0] == record.idcb.ppn:
            # The enclave<->service communication endpoint must stay
            # resident, or post-eviction requests would flow through an
            # OS-owned frame.
            raise SecurityViolation(
                "the enclave's IDCB page cannot be evicted")
        del record.pages[vpn]
        ppn, writable, executable = entry
        self.charge(PAGING_BASE_CYCLES)
        plaintext = self.read_page(core, ppn)
        counter = next(record.counter_source)
        nonce = cipher.nonce_from_counter(counter)
        aad = vpn.to_bytes(8, "little")
        sealed = record.key.seal(nonce, plaintext, aad=aad)
        self.charge(self.machine.cost.cipher_cost(len(plaintext)), "crypto")
        ciphertext, tag = sealed[:-cipher.TAG_BYTES], \
            sealed[-cipher.TAG_BYTES:]
        core.write_phys(page_base(staging_ppn), ciphertext)
        record.swapped[vpn] = SwapRecord(counter=counter,
                                         writable=writable,
                                         executable=executable)
        # Scrub the plaintext and hand the frame back to the OS.
        core.write_phys(page_base(ppn), b"\x00" * PAGE_SIZE)
        assert record.page_table is not None
        record.page_table.unmap(vpn)
        core.rmpadjust(ppn=ppn, target_vmpl=VMPL_ENC, perms=Access.NONE)
        core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT, perms=Access.all())
        del self.ppn_owner[ppn]
        self.request_count += 1
        return {"status": "ok", "tag_hex": tag.hex(), "counter": counter}

    @traced("restore_page")
    def handle_restore_page(self, core: "VirtualCpu",
                            request: dict) -> dict:
        """Verify freshness + integrity, then remap a swapped-in page."""
        record = self._record(request["enclave_id"])
        vpn = int(request["vpn"])
        staging_ppn = int(request["staging_ppn"])
        new_ppn = int(request["new_ppn"])
        self.sanitize([staging_ppn, new_ppn])
        if new_ppn in self.ppn_owner:
            raise SecurityViolation(
                "restore target already owned by an enclave")
        swap = record.swapped.get(vpn)
        if swap is None:
            raise SecurityViolation(f"vpn {vpn:#x} was never evicted")
        self.charge(PAGING_BASE_CYCLES)
        ciphertext = self.read_page(core, staging_ppn)
        tag = bytes.fromhex(request["tag_hex"])
        nonce = cipher.nonce_from_counter(swap.counter)
        aad = vpn.to_bytes(8, "little")
        # Raises SecurityViolation if the OS returned a corrupted or stale
        # page (wrong counter => wrong nonce => tag mismatch).
        plaintext = record.key.open_sealed(nonce, ciphertext + tag,
                                           aad=aad)
        self.charge(self.machine.cost.cipher_cost(len(plaintext)), "crypto")
        core.rmpadjust(ppn=new_ppn, target_vmpl=VMPL_UNT,
                       perms=Access.NONE)
        perms = _CODE_PERMS if swap.executable else _DATA_PERMS
        core.rmpadjust(ppn=new_ppn, target_vmpl=VMPL_ENC, perms=perms)
        core.write_phys(page_base(new_ppn), plaintext)
        assert record.page_table is not None
        record.page_table.map(vpn, new_ppn, writable=swap.writable,
                              user=True, nx=not swap.executable)
        record.pages[vpn] = (new_ppn, swap.writable, swap.executable)
        self.ppn_owner[new_ppn] = record.enclave_id
        del record.swapped[vpn]
        self.request_count += 1
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # Permission changes
    # ------------------------------------------------------------------

    @traced("sync_mprotect")
    def handle_sync_mprotect(self, core: "VirtualCpu",
                             request: dict) -> dict:
        """OS-requested sync of *non-enclave* permission changes into the
        protected page table (section 6.2)."""
        record = self._record(request["enclave_id"])
        vaddr = int(request["vaddr"])
        num_pages = int(request["num_pages"])
        writable = bool(request["writable"])
        executable = bool(request["executable"])
        for index in range(num_pages):
            addr = vaddr + index * PAGE_SIZE
            if record.contains_vaddr(addr):
                raise SecurityViolation(
                    "OS may not change enclave-region permissions")
        assert record.page_table is not None
        for index in range(num_pages):
            vpn = (vaddr >> 12) + index
            if record.page_table.entry(vpn) is not None:
                record.page_table.protect(vpn, writable=writable,
                                          nx=not executable)
        return {"status": "ok"}

    @traced("mprotect")
    def handle_enclave_mprotect(self, core: "VirtualCpu",
                                request: dict) -> dict:
        """Enclave-requested permission change on its own pages (arrives
        via the enclave's GHCB + IDCB, not through the OS)."""
        if int(request.get("_reply_to", VMPL_UNT)) != VMPL_ENC:
            raise SecurityViolation(
                "enclave permission changes must come from the enclave")
        record = self._record(request["enclave_id"])
        vaddr = int(request["vaddr"])
        num_pages = int(request["num_pages"])
        writable = bool(request["writable"])
        executable = bool(request["executable"])
        assert record.page_table is not None
        for index in range(num_pages):
            addr = vaddr + index * PAGE_SIZE
            if not record.contains_vaddr(addr):
                raise SecurityViolation(
                    "enclave mprotect outside enclave region")
            vpn = addr >> 12
            entry = record.pages.get(vpn)
            if entry is None:
                raise SecurityViolation(f"vpn {vpn:#x} not resident")
            ppn, _w, _x = entry
            perms = _CODE_PERMS if executable else _DATA_PERMS
            if writable and executable:
                raise SecurityViolation("W+X enclave pages are refused")
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_ENC, perms=perms)
            record.page_table.protect(vpn, writable=writable,
                                      nx=not executable)
            record.pages[vpn] = (ppn, writable, executable)
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    @traced("destroy")
    def handle_destroy(self, core: "VirtualCpu", request: dict) -> dict:
        """Scrub and release all enclave memory back to the OS."""
        record = self._record(request["enclave_id"])
        self.charge(FINALIZE_BASE_CYCLES)
        for vpn, (ppn, _w, _x) in list(record.pages.items()):
            core.write_phys(page_base(ppn), b"\x00" * PAGE_SIZE)
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_ENC,
                           perms=Access.NONE)
            core.rmpadjust(ppn=ppn, target_vmpl=VMPL_UNT,
                           perms=Access.all())
            self.ppn_owner.pop(ppn, None)
        record.pages.clear()
        record.swapped.clear()
        record.destroyed = True
        self.request_count += 1
        return {"status": "ok"}


def ghcb_ppn_vpn(request: dict) -> int:
    """The vpn at which the per-thread GHCB is user-mapped."""
    return int(request["ghcb_vaddr"]) >> 12
