"""VeilS-LOG: tamper-proof system audit logging (paper section 6.3).

The service reserves a large protected region in DomSER memory and gives
the OS an *append-only* interface reached through an IDCB plus a domain
switch ("execute-ahead" protection: the hook runs before the audited event
executes).  A compromised kernel can neither rewrite stored entries (the
storage is VMPL-protected) nor read them back; only the remote user can
retrieve or clear logs, over VeilMon's authenticated channel.
"""

from __future__ import annotations

import typing

from ...crypto.hashes import MeasurementChain
from ...errors import SecurityViolation
from ...hw.memory import PAGE_SIZE, page_base
from ...kernel.audit import AuditEntry, AuditSink
from .base import ProtectedService, traced

if typing.TYPE_CHECKING:
    from ...hw.vcpu import VirtualCpu
    from ..switch import MonitorGateway
    from ..veilmon import VeilMon

#: Service-side cost of appending one record (bounds check, index update).
APPEND_SERVICE_CYCLES = 500

_LEN = 4


class VeilSLog(ProtectedService):
    """The log-protection service."""

    name = "veils-log"

    def __init__(self, veilmon: "VeilMon", *, storage_pages: int = 1024):
        super().__init__(veilmon)
        #: Reserved append-only storage (paper: ~1 GB/day of logs).
        self.storage_ppns = veilmon.reserve_protected_frames(
            storage_pages, "veils-log-storage")
        self.capacity_bytes = storage_pages * PAGE_SIZE
        self.write_offset = 0
        #: (offset, length) index of appended records.
        self._index: list[tuple[int, int]] = []
        self.dropped = 0
        #: Running MAC chain over every appended record.  Kept in DomSER
        #: memory, exported inside the sealed channel record, so a remote
        #: auditor can detect any dropped/reordered/rewritten entry even
        #: if the relaying OS replays stale export pages.
        self.chain = MeasurementChain()

    def handlers(self) -> dict:
        """DomSER request-dispatch table for this service."""
        return {
            "log_append": self.handle_append,
            "log_export": self.handle_export,
            "log_clear": self.handle_clear,
        }

    # ------------------------------------------------------------------
    # Append path (hot; called per audit record)
    # ------------------------------------------------------------------

    def _storage_location(self, offset: int) -> tuple[int, int]:
        page_index, in_page = divmod(offset, PAGE_SIZE)
        return self.storage_ppns[page_index], in_page

    def _write_storage(self, core: "VirtualCpu", offset: int,
                       blob: bytes) -> None:
        ppn, in_page = self._storage_location(offset)
        if in_page + len(blob) <= PAGE_SIZE:
            core.write_phys(page_base(ppn) + in_page, blob)
            return
        pos = 0
        while pos < len(blob):
            ppn, in_page = self._storage_location(offset + pos)
            chunk = min(len(blob) - pos, PAGE_SIZE - in_page)
            core.write_phys(page_base(ppn) + in_page,
                            blob[pos:pos + chunk])
            pos += chunk

    def _read_storage(self, core: "VirtualCpu", offset: int,
                      length: int) -> bytes:
        out = bytearray()
        pos = 0
        while pos < length:
            ppn, in_page = self._storage_location(offset + pos)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            out.extend(core.read_phys(page_base(ppn) + in_page, chunk))
            pos += chunk
        return bytes(out)

    def append(self, core: "VirtualCpu", blob: bytes) -> bool:
        """Append one serialized record; False if storage is full."""
        framed_len = _LEN + len(blob)
        if self.write_offset + framed_len > self.capacity_bytes:
            self.dropped += 1
            return False
        self.charge(APPEND_SERVICE_CYCLES)
        self._write_storage(core, self.write_offset,
                            len(blob).to_bytes(_LEN, "little") + blob)
        self.chain.extend("log", blob)
        self._index.append((self.write_offset + _LEN, len(blob)))
        self.write_offset += framed_len
        self.request_count += 1
        return True

    @traced("append")
    def handle_append(self, core: "VirtualCpu", request: dict) -> dict:
        """Service request: append one serialized record."""
        blob = bytes.fromhex(request["record_hex"])
        ok = self.append(core, blob)
        return {"status": "ok" if ok else "full"}

    # ------------------------------------------------------------------
    # Retrieval (remote user only, via VeilMon's secure channel)
    # ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of records in protected storage."""
        return len(self._index)

    def retrieve_all(self, core: "VirtualCpu") -> list[bytes]:
        """Read every stored record (service/monitor context only)."""
        return [self._read_storage(core, off, length)
                for off, length in self._index]

    def sealed_export(self, core: "VirtualCpu") -> bytes:
        """Export all records sealed for the remote user.

        Must run in DomSER/DomMON context (storage is VMPL-protected);
        the OS reaches it only through the ``log_export`` service request,
        receiving an opaque sealed blob it can relay but not read.
        """
        records = [blob.decode("utf-8") for blob in self.retrieve_all(core)]
        return self.veilmon.channel_send({"logs": records,
                                          "chain_hex": self.chain.hexdigest})

    #: Records per export chunk (each sealed chunk must fit the IDCB).
    EXPORT_CHUNK = 20

    @traced("export")
    def handle_export(self, core: "VirtualCpu", request: dict) -> dict:
        """Service request: seal a chunk of logs for the remote user.

        Exports are paged (``start`` cursor in the request, ``next`` in
        the reply) so arbitrarily large logs stream through the
        fixed-size IDCB; each chunk is an independent sealed channel
        record the relaying OS cannot read or reorder.
        """
        start = int(request.get("start", 0))
        limit = int(request.get("limit", self.EXPORT_CHUNK))
        window = self._index[start:start + limit]
        records = [self._read_storage(core, off, length).decode("utf-8")
                   for off, length in window]
        wire = self.veilmon.channel_send({
            "logs": records, "start": start,
            "total": len(self._index),
            "chain_hex": self.chain.hexdigest})
        next_start = start + len(window)
        return {"status": "ok", "record_hex": wire.hex(),
                "next": next_start if next_start < len(self._index)
                else None}

    @traced("clear")
    def handle_clear(self, core: "VirtualCpu", request: dict) -> dict:
        """Service request: clear storage, only with a fresh authenticated
        record from the remote user (relayed by the untrusted OS)."""
        if self.veilmon.user_channel is None:
            raise SecurityViolation("secure channel not established")
        payload = self.veilmon.user_channel.receive(
            bytes.fromhex(request["record_hex"]))
        if payload.get("cmd") != "clear_logs":
            raise SecurityViolation("user record does not authorize clear")
        self.clear(authorized_by_user=True)
        return {"status": "ok"}

    def clear(self, *, authorized_by_user: bool) -> None:
        """Reset storage after the remote user confirms retrieval."""
        if not authorized_by_user:
            raise SecurityViolation(
                "only the remote user may clear protected logs")
        self.write_offset = 0
        self._index.clear()
        self.chain = MeasurementChain()


class VeilLogSink(AuditSink):
    """Kaudit sink that forwards each record to VeilS-LOG.

    This is the execute-ahead hook (paper section 6.3): kaudit's
    ``audit_log_end`` produces the record, the sink transcribes it into
    the OS<->SER IDCB and performs a full domain-switch round trip before
    the audited event proceeds.
    """

    name = "veils-log"

    def __init__(self, gateway: "MonitorGateway", service: VeilSLog):
        self.gateway = gateway
        self.service = service
        #: Same collection cost the in-memory baseline pays.
        from ...kernel.audit import InMemoryAuditSink
        self._collection_cycles = InMemoryAuditSink.PER_ENTRY_CYCLES

    @property
    def storage_ppns(self) -> list:
        return self.service.storage_ppns

    def append(self, core, entry: AuditEntry) -> None:
        """Forward a record to protected storage (one switch round trip)."""
        blob = entry.serialize()
        machine = core.machine
        machine.ledger.charge("audit",
                              machine.cost.copy_cost(len(blob)) +
                              self._collection_cycles)
        self.gateway.call_service(core, {"op": "log_append",
                                         "record_hex": blob.hex()})

    def entry_count(self) -> int:
        """Records stored so far (sink interface)."""
        return self.service.entry_count
