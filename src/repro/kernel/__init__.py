"""Commodity guest-kernel model (the untrusted OS inside the CVM)."""

from .audit import (DEFAULT_AUDIT_RULESET, AuditEntry, AuditSink,
                    InMemoryAuditSink, Kaudit, NullAuditSink)
from .fs import (FileSystem, Inode, InodeType, O_APPEND, O_CREAT, O_EXCL,
                 O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY, OpenFile, Pipe,
                 SEEK_CUR, SEEK_END, SEEK_SET)
from .kernel import Kernel
from .modules import (LoadedModule, ModuleImage, ModuleLoader, Relocation,
                      build_module)
from .net import AF_INET, AF_UNIX, NetworkStack, SOCK_DGRAM, SOCK_STREAM, \
    Socket
from .process import FileDescriptor, Process, VmRegion
from .scheduler import Scheduler
from .syscalls import (BASE_COSTS, MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED,
                       PROT_EXEC, PROT_READ, PROT_WRITE, SyscallTable)
from .vulnerable import AttackerContext

__all__ = [
    "DEFAULT_AUDIT_RULESET", "AuditEntry", "AuditSink", "InMemoryAuditSink",
    "Kaudit", "NullAuditSink", "FileSystem", "Inode", "InodeType",
    "O_APPEND", "O_CREAT", "O_EXCL", "O_RDONLY", "O_RDWR", "O_TRUNC",
    "O_WRONLY", "OpenFile", "Pipe", "SEEK_CUR", "SEEK_END", "SEEK_SET",
    "Kernel", "LoadedModule", "ModuleImage", "ModuleLoader", "Relocation",
    "build_module", "AF_INET", "AF_UNIX", "NetworkStack", "SOCK_DGRAM",
    "SOCK_STREAM", "Socket", "FileDescriptor", "Process", "VmRegion",
    "Scheduler", "BASE_COSTS", "MAP_ANONYMOUS", "MAP_PRIVATE", "MAP_SHARED",
    "PROT_EXEC", "PROT_READ", "PROT_WRITE", "SyscallTable",
    "AttackerContext",
]
