"""Syscall call/type specifications for the enclave SDK sanitizer.

The paper's SDK derives a deep-copy marshalling library from Syzkaller's
syscall grammar (section 7): a *call specification* describing each
argument's role and a *type specification* describing buffer lengths and
pointer relationships (e.g. ``write``'s third argument is the length of
its second).

The same structure is reproduced here: :data:`SYSCALL_SPECS` maps every
syscall the SDK knows about to a :class:`CallSpec`.  Calls marked
unsupported kill the enclave on use, matching the SDK's fail-stop design.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ArgKind(enum.Enum):
    """Marshalling roles an argument can play."""
    SCALAR = "scalar"        # passed through unchanged
    PATH = "path"            # NUL-terminated string copied out
    BUF_IN = "buf_in"        # enclave -> untrusted (e.g. write payload)
    BUF_OUT = "buf_out"      # untrusted -> enclave (e.g. read target)
    IOVEC_IN = "iovec_in"    # scatter list, enclave -> untrusted
    IOVEC_OUT = "iovec_out"  # scatter list, untrusted -> enclave


@dataclass(frozen=True)
class ArgSpec:
    """One argument's marshalling rule."""

    name: str
    kind: ArgKind = ArgKind.SCALAR
    #: Index of the argument holding this buffer's byte length.
    len_from: int | None = None
    #: Fixed length when no length argument exists.
    const_len: int | None = None


@dataclass(frozen=True)
class CallSpec:
    """A syscall's full marshalling specification."""

    name: str
    args: tuple = ()
    #: The OS's return value is a pointer that must be IAGO-checked.
    returns_pointer: bool = False
    #: Index of the argument holding the returned region's byte length;
    #: ``None`` checks the returned pointer alone.
    returns_len_from: int | None = None
    #: Unsupported calls kill the enclave on execution (fail-stop SDK).
    supported: bool = True
    #: LTP semantic cases known to be unimplemented (subset of flags or
    #: edge behaviours); drives the conformance-suite pass pattern.
    unimplemented_cases: tuple = ()


def _spec(name: str, *args: ArgSpec, returns_pointer: bool = False,
          returns_len_from: int | None = None, supported: bool = True,
          unimplemented_cases: tuple = ()) -> CallSpec:
    return CallSpec(name=name, args=tuple(args),
                    returns_pointer=returns_pointer,
                    returns_len_from=returns_len_from, supported=supported,
                    unimplemented_cases=unimplemented_cases)


S = ArgSpec  # local alias for table brevity

SYSCALL_SPECS: dict[str, CallSpec] = {}


def _register(spec: CallSpec) -> None:
    SYSCALL_SPECS[spec.name] = spec


# ---- file I/O ---------------------------------------------------------------
_register(_spec("open", S("path", ArgKind.PATH), S("flags"), S("mode")))
_register(_spec("openat", S("dirfd"), S("path", ArgKind.PATH), S("flags"),
                S("mode"), unimplemented_cases=("O_TMPFILE",)))
_register(_spec("creat", S("path", ArgKind.PATH), S("mode")))
_register(_spec("close", S("fd")))
_register(_spec("read", S("fd"), S("buf", ArgKind.BUF_OUT, len_from=2),
                S("count")))
_register(_spec("write", S("fd"), S("buf", ArgKind.BUF_IN, len_from=2),
                S("count")))
_register(_spec("pread", S("fd"), S("buf", ArgKind.BUF_OUT, len_from=2),
                S("count"), S("offset")))
_register(_spec("pwrite", S("fd"), S("buf", ArgKind.BUF_IN, len_from=2),
                S("count"), S("offset")))
_register(_spec("readv", S("fd"), S("iov", ArgKind.IOVEC_OUT)))
_register(_spec("writev", S("fd"), S("iov", ArgKind.IOVEC_IN)))
_register(_spec("lseek", S("fd"), S("offset"), S("whence")))
_register(_spec("stat", S("path", ArgKind.PATH)))
_register(_spec("fstat", S("fd")))
_register(_spec("getdents", S("fd")))
_register(_spec("truncate", S("path", ArgKind.PATH), S("length")))
_register(_spec("ftruncate", S("fd"), S("length")))
_register(_spec("sendfile", S("out_fd"), S("in_fd"), S("count")))
_register(_spec("splice", S("in_fd"), S("out_fd"), S("count"),
                unimplemented_cases=("SPLICE_F_MOVE",)))

# ---- namespace ---------------------------------------------------------------
_register(_spec("link", S("old", ArgKind.PATH), S("new", ArgKind.PATH)))
_register(_spec("unlink", S("path", ArgKind.PATH)))
_register(_spec("unlinkat", S("dirfd"), S("path", ArgKind.PATH),
                S("flags")))
_register(_spec("symlink", S("target", ArgKind.PATH),
                S("link", ArgKind.PATH)))
_register(_spec("readlink", S("path", ArgKind.PATH),
                S("buf", ArgKind.BUF_OUT, len_from=2), S("bufsize")))
_register(_spec("rename", S("old", ArgKind.PATH), S("new", ArgKind.PATH)))
_register(_spec("mkdir", S("path", ArgKind.PATH), S("mode")))
_register(_spec("rmdir", S("path", ArgKind.PATH)))
_register(_spec("mknod", S("path", ArgKind.PATH), S("mode"),
                unimplemented_cases=("S_IFCHR", "S_IFBLK")))
_register(_spec("mknodat", S("dirfd"), S("path", ArgKind.PATH), S("mode"),
                unimplemented_cases=("S_IFCHR", "S_IFBLK")))
_register(_spec("chmod", S("path", ArgKind.PATH), S("mode")))
_register(_spec("fchmod", S("fd"), S("mode")))

# ---- fds -------------------------------------------------------------------------
_register(_spec("dup", S("fd")))
_register(_spec("dup2", S("oldfd"), S("newfd")))
_register(_spec("dup3", S("oldfd"), S("newfd"), S("flags")))
_register(_spec("fcntl", S("fd"), S("cmd"), S("arg"),
                unimplemented_cases=("F_SETLK", "F_GETOWN")))
_register(_spec("pipe", unimplemented_cases=("O_DIRECT",)))
_register(_spec("pipe2", S("flags"), unimplemented_cases=("O_DIRECT",)))

# ---- memory ------------------------------------------------------------------------
_register(_spec("mmap", S("addr"), S("length"), S("prot"), S("flags"),
                S("fd"), S("offset"), returns_pointer=True,
                returns_len_from=1))
_register(_spec("munmap", S("addr"), S("length")))
_register(_spec("mprotect", S("addr"), S("length"), S("prot")))
_register(_spec("brk", S("addr"), returns_pointer=True))

# ---- network ------------------------------------------------------------------------
_register(_spec("socket", S("family"), S("type"), S("proto"),
                unimplemented_cases=("AF_INET6", "SOCK_RAW")))
_register(_spec("bind", S("fd"), S("addr"), S("port")))
_register(_spec("listen", S("fd"), S("backlog")))
_register(_spec("accept", S("fd")))
_register(_spec("accept4", S("fd"), S("flags")))
_register(_spec("connect", S("fd"), S("addr"), S("port")))
_register(_spec("sendto", S("fd"), S("buf", ArgKind.BUF_IN, len_from=2),
                S("count"), S("dest")))
_register(_spec("recvfrom", S("fd"),
                S("buf", ArgKind.BUF_OUT, len_from=2), S("count")))
_register(_spec("sendmsg", S("fd"), S("iov", ArgKind.IOVEC_IN),
                unimplemented_cases=("SCM_RIGHTS",)))
_register(_spec("recvmsg", S("fd"), S("iov", ArgKind.IOVEC_OUT),
                unimplemented_cases=("SCM_RIGHTS",)))
_register(_spec("socketpair", S("family"), S("type")))

# ---- paths & sync (at-variants share their base call's grammar) -------------
_register(_spec("access", S("path", ArgKind.PATH), S("mode")))
_register(_spec("faccessat", S("dirfd"), S("path", ArgKind.PATH),
                S("mode")))
_register(_spec("chdir", S("path", ArgKind.PATH)))
_register(_spec("getcwd"))
_register(_spec("umask", S("mask")))
_register(_spec("sync"))
_register(_spec("fsync", S("fd")))
_register(_spec("fdatasync", S("fd")))
_register(_spec("madvise", S("addr"), S("length"), S("advice")))
_register(_spec("msync", S("addr"), S("length"), S("flags")))
_register(_spec("linkat", S("olddirfd"), S("old", ArgKind.PATH),
                S("newdirfd"), S("new", ArgKind.PATH)))
_register(_spec("symlinkat", S("target", ArgKind.PATH), S("newdirfd"),
                S("link", ArgKind.PATH)))
_register(_spec("renameat", S("olddirfd"), S("old", ArgKind.PATH),
                S("newdirfd"), S("new", ArgKind.PATH)))
_register(_spec("fchmodat", S("dirfd"), S("path", ArgKind.PATH),
                S("mode")))

# ---- identity / process -----------------------------------------------------------------
_register(_spec("getpid"))
_register(_spec("getppid"))
_register(_spec("getpgid", S("pid")))
_register(_spec("gettid"))
_register(_spec("sched_yield"))
_register(_spec("getuid"))
_register(_spec("geteuid"))
_register(_spec("setuid", S("uid")))
_register(_spec("setreuid", S("ruid"), S("euid")))
_register(_spec("setresuid", S("ruid"), S("euid"), S("suid")))
_register(_spec("exit", S("code")))
_register(_spec("wait4", S("pid"), unimplemented_cases=("WNOHANG",)))
_register(_spec("uname"))
_register(_spec("getrandom", S("buf", ArgKind.BUF_OUT, len_from=1),
                S("count")))
_register(_spec("clock_gettime", S("clock_id")))
_register(_spec("nanosleep", S("nanos")))

# ---- unsupported inside enclaves (fail-stop; the SDK kills the enclave) ----
for _name in ("fork", "vfork", "clone", "execve", "ioctl", "ptrace",
              "mount", "umount", "chroot", "reboot", "kexec_load",
              "init_module", "delete_module", "iopl", "ioperm",
              "userfaultfd", "io_uring_setup", "io_uring_enter", "bpf",
              "perf_event_open", "process_vm_readv", "process_vm_writev",
              "sigaltstack", "rt_sigaction", "rt_sigreturn", "seccomp",
              "setns", "unshare", "pivot_root", "swapon", "swapoff",
              "quotactl", "acct", "personality", "modify_ldt",
              "arch_prctl", "set_thread_area", "vm86"):
    _register(_spec(_name, supported=False))


def supported_syscalls() -> list[str]:
    """Syscalls the SDK marshals."""
    return sorted(name for name, spec in SYSCALL_SPECS.items()
                  if spec.supported)


def unsupported_syscalls() -> list[str]:
    """Syscalls that kill the enclave on use."""
    return sorted(name for name, spec in SYSCALL_SPECS.items()
                  if not spec.supported)
