"""Kaudit: the kernel's audit framework (Linux kaudit model).

Log entries are produced at ``audit_log_end`` time for syscalls matched by
the installed ruleset (the paper uses the ruleset from prior forensics
work; see :data:`DEFAULT_AUDIT_RULESET`) and for explicit kernel events
(module load/unload, etc.).

The *sink* is pluggable, mirroring the paper's evaluation setup:

* :class:`InMemoryAuditSink` -- the paper's modified Kaudit baseline that
  keeps logs in kernel memory (auditd's userspace writer removed);
* VeilS-LOG installs its own sink that forwards each entry through an IDCB
  plus a domain switch into protected storage (section 6.3).

An attacker who compromises the kernel can trivially rewrite an in-memory
sink's buffer; that is the attack VeilS-LOG defeats.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from ..codec import encode

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu

# Ruleset from the paper's footnote (section 9.2, CS3).
DEFAULT_AUDIT_RULESET = frozenset({
    "read", "readv", "write", "writev", "sendto", "recvfrom", "sendmsg",
    "recvmsg", "mmap", "mprotect", "link", "symlink", "clone", "fork",
    "vfork", "execve", "open", "close", "creat", "openat", "mknodat",
    "mknod", "dup", "dup2", "dup3", "bind", "accept", "accept4", "connect",
    "rename", "setuid", "setreuid", "setresuid", "chmod", "fchmod", "pipe",
    "pipe2", "truncate", "ftruncate", "sendfile", "unlink", "unlinkat",
    "socketpair", "splice",
})

#: A record with exact-int ``cycles``, ``pid`` and ``seq``, as
#: :func:`~repro.codec.encode` writes it (sorted keys, default
#: separators) around the encoded ``detail`` and ``kind``.
_ENTRY_FORM = (b'{"cycles": %d, "detail": %s, "kind": %s, '
               b'"pid": %d, "seq": %d}')


@dataclass(frozen=True)
class AuditEntry:
    """One serialized audit record."""

    seq: int
    cycles: int
    pid: int
    kind: str              # "syscall" or an event name
    detail: dict

    def serialize(self) -> bytes:
        """JSON-encode the record for storage."""
        seq, cycles, pid = self.seq, self.cycles, self.pid
        if type(seq) is int and type(cycles) is int and type(pid) is int:
            # The outer keys are fixed, so only ``kind`` and ``detail``
            # need the encoder; an exact int prints as the encoder does
            # (a bool would print as ``true``, hence ``type(x) is int``).
            return _ENTRY_FORM % (cycles, encode(self.detail),
                                  encode(self.kind), pid, seq)
        return encode({"seq": seq, "cycles": cycles, "pid": pid,
                       "kind": self.kind, "detail": self.detail})


class AuditSink:
    """Interface for log storage backends."""

    name = "abstract"

    def append(self, core: "VirtualCpu", entry: AuditEntry) -> None:
        """Store one record (backend-specific)."""
        raise NotImplementedError

    def entry_count(self) -> int:
        """Records stored so far."""
        raise NotImplementedError


class NullAuditSink(AuditSink):
    """Auditing disabled (the 'native' baseline in Fig. 6)."""

    name = "null"

    def append(self, core, entry: AuditEntry) -> None:
        pass

    def entry_count(self) -> int:
        """Always zero (auditing disabled)."""
        return 0


class InMemoryAuditSink(AuditSink):
    """Modified Kaudit: entries appended to a kernel memory buffer.

    Charges the copy of the serialized record plus a small bookkeeping
    cost.  The buffer is plain kernel memory: a compromised kernel can
    rewrite it (see :mod:`repro.attacks`).
    """

    name = "kaudit"

    #: Kernel-side record collection/formatting cost (context gathering,
    #: field serialization, allocation).  Kaudit record production is
    #: known to be expensive; this constant is calibrated so the
    #: in-memory baseline lands in the paper's 0.3-8.7% overhead band.
    PER_ENTRY_CYCLES = 4400

    def __init__(self, core_for_cost: "VirtualCpu | None" = None):
        self.records: list[bytes] = []
        self._core = core_for_cost

    def append(self, core, entry: AuditEntry) -> None:
        blob = entry.serialize()
        machine = core.machine
        machine.ledger.charge("audit",
                              machine.cost.copy_cost(len(blob)) +
                              self.PER_ENTRY_CYCLES)
        self.records.append(blob)

    def entry_count(self) -> int:
        """Records held in the kernel buffer."""
        return len(self.records)

    def tamper(self, index: int, blob: bytes) -> None:
        """Attacker primitive: rewrite a stored record (always succeeds --
        this sink has no protection, which is the point of the baseline)."""
        self.records[index] = blob


class Kaudit:
    """The audit framework wired into syscall dispatch."""

    def __init__(self, ruleset: frozenset = frozenset()):
        self.ruleset = ruleset
        self.sink: AuditSink = NullAuditSink()
        self._seq = 0
        self.dropped = 0

    def set_ruleset(self, ruleset) -> None:
        """Install the audited-syscall set."""
        self.ruleset = frozenset(ruleset)

    def set_sink(self, sink: AuditSink) -> None:
        """Install the storage backend."""
        self.sink = sink

    @property
    def enabled(self) -> bool:
        return bool(self.ruleset) and not isinstance(self.sink,
                                                     NullAuditSink)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def log_syscall(self, core: "VirtualCpu", pid: int, name: str,
                    args_summary: dict, result) -> None:
        """audit_log_end hook: called after a matched syscall returns."""
        if name not in self.ruleset:
            return
        entry = AuditEntry(seq=self._next_seq(),
                           cycles=core.machine.ledger.total, pid=pid,
                           kind="syscall",
                           detail={"syscall": name, "args": args_summary,
                                   "ret": repr(result)})
        tracer = core.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "audit", f"append:{name}", vcpu=core.cpu_index, pid=pid,
                args={"seq": entry.seq, "sink": self.sink.name})
        self.sink.append(core, entry)

    def log_event(self, core: "VirtualCpu", kind: str, detail: dict) -> None:
        """Kernel-event records (module load, segfault, ...)."""
        if isinstance(self.sink, NullAuditSink):
            return
        entry = AuditEntry(seq=self._next_seq(),
                           cycles=core.machine.ledger.total, pid=0,
                           kind=kind, detail=detail)
        core.machine.tracer.instant(
            "audit", f"append:{kind}", vcpu=core.cpu_index,
            args={"seq": entry.seq, "sink": self.sink.name})
        self.sink.append(core, entry)
