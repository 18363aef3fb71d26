"""Workload plumbing: one program body, two execution environments.

The paper evaluates each application natively and inside a VeilS-ENC
enclave.  To guarantee both runs execute *the same logical work*, every
workload here is a :class:`Program` written against the small
:class:`AppApi` surface: :class:`NativeApi` binds it to direct process
syscalls, and inside an enclave the SDK's
:class:`~repro.enclave.sdk.EnclaveLibc`, which has the same surface, is
passed as it is.

Measurements come from the machine's cycle ledger: a run's cost is the
ledger delta across the workload body.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from ..hw.cycles import CLOCK_HZ
from ..kernel.syscalls import MAP_ANONYMOUS, MAP_PRIVATE, PROT_READ, \
    PROT_WRITE

if typing.TYPE_CHECKING:
    from ..enclave.sdk import EnclaveLibc
    from ..hw.vcpu import VirtualCpu
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process


@dataclass
class RunStats:
    """Outcome of one measured workload run."""

    name: str
    cycles: int
    by_category: dict
    syscalls: int = 0
    enclave_exits: int = 0
    redirect_bytes: int = 0
    log_entries: int = 0

    @property
    def seconds(self) -> float:
        return self.cycles / CLOCK_HZ

    def overhead_vs(self, baseline: "RunStats") -> float:
        """Fractional slowdown of this run relative to ``baseline``."""
        if baseline.cycles == 0:
            raise ValueError("baseline did no work")
        return (self.cycles - baseline.cycles) / baseline.cycles


@dataclass(frozen=True)
class Program:
    """One evaluation workload: ``setup(kernel)`` stages its files and
    returns the state that ``run(api, state)`` works on."""

    name: str
    setup: typing.Callable[["Kernel"], dict]
    run: typing.Callable[["AppApi", dict], object]
    #: The paper's Table 4 or Table 5 description of the run.
    setting: str = ""


class AppApi:
    """The syscall-ish surface workload programs are written against."""

    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> int:
        """Open a file; returns an fd."""
        raise NotImplementedError

    def close(self, fd: int) -> int:
        """Close an fd."""
        raise NotImplementedError

    def read(self, fd: int, count: int) -> bytes:
        """Read up to ``count`` bytes."""
        raise NotImplementedError

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        """Positional read; offset unchanged."""
        raise NotImplementedError

    def write(self, fd: int, data: bytes) -> int:
        """Write ``data``; returns bytes written."""
        raise NotImplementedError

    def lseek(self, fd: int, offset: int, whence: int) -> int:
        """Reposition the file offset."""
        raise NotImplementedError

    def unlink(self, path: str) -> int:
        """Remove a name."""
        raise NotImplementedError

    def stat(self, path: str) -> dict:
        """Path metadata."""
        raise NotImplementedError

    def mmap(self, length: int, prot: int = PROT_READ | PROT_WRITE,
             flags: int = MAP_PRIVATE | MAP_ANONYMOUS, fd: int = -1,
             offset: int = 0) -> int:
        """Map anonymous/file memory; returns the vaddr."""
        raise NotImplementedError

    def munmap(self, addr: int, length: int) -> int:
        """Unmap an mmap'd region."""
        raise NotImplementedError

    def socket(self, family: int = 2, stype: int = 1) -> int:
        """Create a socket fd."""
        raise NotImplementedError

    def bind(self, fd: int, addr: str, port: int) -> int:
        """Bind a socket."""
        raise NotImplementedError

    def listen(self, fd: int, backlog: int = 16) -> int:
        """Start accepting connections."""
        raise NotImplementedError

    def accept(self, fd: int) -> int:
        """Accept a pending connection; returns its fd."""
        raise NotImplementedError

    def connect(self, fd: int, addr: str, port: int) -> int:
        """Connect to a listener."""
        raise NotImplementedError

    def send(self, fd: int, data: bytes) -> int:
        """Send bytes over a socket."""
        raise NotImplementedError

    def recv(self, fd: int, count: int) -> bytes:
        """Receive up to ``count`` bytes."""
        raise NotImplementedError

    def getrandom(self, count: int) -> bytes:
        """Random bytes from the kernel."""
        raise NotImplementedError

    def printf(self, text: str) -> int:
        """Write formatted text to stdout."""
        raise NotImplementedError

    def compute(self, cycles: int) -> None:
        """Model ``cycles`` of application compute."""
        raise NotImplementedError


class NativeApi(AppApi):
    """Direct process-syscall binding (the paper's native baseline).

    Keeps a scratch user buffer for data-carrying syscalls, mirroring the
    copies a real program performs through its own buffers.
    """

    SCRATCH_PAGES = 64

    def __init__(self, kernel: "Kernel", core: "VirtualCpu",
                 proc: "Process"):
        self.kernel = kernel
        self.core = core
        self.proc = proc
        self.scratch = kernel.syscall(
            core, proc, "mmap", 0, self.SCRATCH_PAGES * 4096,
            PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS)
        self.syscall_count = 0

    def _sys(self, name: str, *args):
        self.syscall_count += 1
        return self.kernel.syscall(self.core, self.proc, name, *args)

    def _stage(self, data: bytes) -> int:
        if len(data) > self.SCRATCH_PAGES * 4096:
            raise ValueError("payload exceeds scratch buffer")
        prev_cr3, prev_cpl = self.core.regs.cr3, self.core.regs.cpl
        self.core.regs.cr3 = self.proc.page_table.root_ppn
        self.core.regs.cpl = 3
        try:
            self.core.write(self.scratch, data)
        finally:
            self.core.regs.cr3, self.core.regs.cpl = prev_cr3, prev_cpl
        return self.scratch

    def _fetch(self, length: int) -> bytes:
        prev_cr3, prev_cpl = self.core.regs.cr3, self.core.regs.cpl
        self.core.regs.cr3 = self.proc.page_table.root_ppn
        self.core.regs.cpl = 3
        try:
            return self.core.read(self.scratch, length)
        finally:
            self.core.regs.cr3, self.core.regs.cpl = prev_cr3, prev_cpl

    # -- surface -------------------------------------------------------------

    def open(self, path, flags=0, mode=0o644):
        return self._sys("open", path, flags, mode)

    def close(self, fd):
        return self._sys("close", fd)

    def read(self, fd, count):
        got = self._sys("read", fd, self.scratch, count)
        return self._fetch(got) if got else b""

    def pread(self, fd, count, offset):
        got = self._sys("pread", fd, self.scratch, count, offset)
        return self._fetch(got) if got else b""

    def write(self, fd, data):
        return self._sys("write", fd, self._stage(data), len(data))

    def lseek(self, fd, offset, whence):
        return self._sys("lseek", fd, offset, whence)

    def unlink(self, path):
        return self._sys("unlink", path)

    def stat(self, path):
        return self._sys("stat", path)

    def mmap(self, length, prot=PROT_READ | PROT_WRITE,
             flags=MAP_PRIVATE | MAP_ANONYMOUS, fd=-1, offset=0):
        return self._sys("mmap", 0, length, prot, flags, fd, offset)

    def munmap(self, addr, length):
        return self._sys("munmap", addr, length)

    def socket(self, family=2, stype=1):
        return self._sys("socket", family, stype, 0)

    def bind(self, fd, addr, port):
        return self._sys("bind", fd, addr, port)

    def listen(self, fd, backlog=16):
        return self._sys("listen", fd, backlog)

    def accept(self, fd):
        return self._sys("accept", fd)

    def connect(self, fd, addr, port):
        return self._sys("connect", fd, addr, port)

    def send(self, fd, data):
        return self._sys("sendto", fd, self._stage(data), len(data))

    def recv(self, fd, count):
        got = self._sys("recvfrom", fd, self.scratch, count)
        return self._fetch(got) if got else b""

    def getrandom(self, count):
        got = self._sys("getrandom", self.scratch, count)
        return self._fetch(got)

    def printf(self, text):
        return self.write(1, text.encode("utf-8"))

    def compute(self, cycles):
        self.kernel.machine.ledger.charge("compute", cycles)
        self.kernel.scheduler.maybe_tick(self.core)


def EnclaveApi(libc: EnclaveLibc) -> EnclaveLibc:
    """The libc itself, which has the :class:`AppApi` surface; kept only
    for ``perf/workloads.py``, its last caller."""
    return libc


def measure(machine, name: str, body: typing.Callable[[], None],
            **extra) -> RunStats:
    """Run ``body`` and return the ledger delta as :class:`RunStats`."""
    before = machine.ledger.snapshot()
    body()
    delta = machine.ledger.since(before)
    return RunStats(name=name, cycles=delta.total,
                    by_category=dict(delta.by_category), **extra)
