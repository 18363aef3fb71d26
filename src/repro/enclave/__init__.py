"""Enclave SDK: binaries, runtime, libc, heap, and syscall sanitizer."""

from .allocator import EnclaveHeap
from .binary import EnclaveBinary, build_test_binary
from .host import EnclaveHost
from .runtime import EnclaveRuntime
from .sanitizer import MarshalledCall, SyscallSanitizer
from .sdk import EnclaveLibc
from .specs import (ArgKind, ArgSpec, CallSpec, SYSCALL_SPECS,
                    supported_syscalls, unsupported_syscalls)

__all__ = [
    "EnclaveHeap", "EnclaveBinary", "build_test_binary", "EnclaveHost",
    "EnclaveRuntime", "MarshalledCall", "SyscallSanitizer", "EnclaveLibc",
    "ArgKind", "ArgSpec", "CallSpec", "SYSCALL_SPECS",
    "supported_syscalls", "unsupported_syscalls",
]
