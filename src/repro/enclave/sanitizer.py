"""Spec-driven syscall marshalling and IAGO defences (paper sections 6.2/7).

For each redirected syscall the sanitizer:

1. deep-copies outbound buffers (and paths) from enclave memory into the
   shared staging region the untrusted application can see;
2. rewrites pointer arguments to point at the staging copies;
3. after the untrusted side returns, copies inbound buffers back into
   enclave memory;
4. IAGO-checks any pointer the OS returned: the region it names must
   not overlap enclave memory (the paper's "basic protection against
   IAGO attacks").

A buffer length the enclave passes must be a non-negative ``int``;
anything else is a malformed call, which kills the enclave like an
unsupported one.
"""

from __future__ import annotations

import typing

from ..errors import SdkError, SecurityViolation
from .specs import ArgKind, CallSpec, SYSCALL_SPECS

#: Sanitizer bookkeeping per redirected call (spec walk, bounds checks).
SANITIZE_BASE_CYCLES = 400

if typing.TYPE_CHECKING:
    from .runtime import EnclaveRuntime


class MarshalledCall:
    """Result of marshalling one syscall's arguments."""

    __slots__ = ("proxy_args", "copy_back", "bytes_out", "bytes_in")

    def __init__(self, proxy_args: list):
        self.proxy_args = proxy_args
        #: (staging_vaddr, enclave_vaddr, length) copies to perform on
        #: return.
        self.copy_back: list = []
        self.bytes_out = 0
        self.bytes_in = 0

    @property
    def bytes_total(self) -> int:
        """Bytes staged out plus bytes to copy back."""
        return self.bytes_out + self.bytes_in


def _checked_length(call: str, arg: str, value) -> int:
    """``value`` if it is a valid buffer length, else an :class:`SdkError`
    naming the call and the argument."""
    if type(value) is not int or value < 0:
        raise SdkError(f"{call}: argument {arg!r} is not a valid buffer "
                       f"length ({value!r}); killing enclave")
    return value


class SyscallSanitizer:
    """Deep-copy marshaller bound to one enclave runtime."""

    def __init__(self, runtime: "EnclaveRuntime"):
        self.runtime = runtime
        self.calls_sanitized = 0
        self.iago_rejections = 0

    def spec_for(self, name: str) -> CallSpec:
        """Look up a call spec; unknown/unsupported kills the enclave."""
        spec = SYSCALL_SPECS.get(name)
        if spec is None:
            raise SdkError(f"syscall {name!r} unknown to the SDK; "
                           "killing enclave")
        if not spec.supported:
            raise SdkError(f"syscall {name!r} unsupported inside enclaves; "
                           "killing enclave")
        return spec

    def _buffer_length(self, spec: CallSpec, arg_index: int,
                       args: tuple) -> int:
        arg_spec = spec.args[arg_index]
        if arg_spec.len_from is not None:
            return _checked_length(spec.name,
                                   spec.args[arg_spec.len_from].name,
                                   args[arg_spec.len_from])
        if arg_spec.const_len is not None:
            return arg_spec.const_len
        raise SdkError(f"{spec.name}: no length rule for "
                       f"argument {arg_spec.name!r}")

    def marshal(self, name: str, args: tuple) -> MarshalledCall:
        """Copy outbound data to staging and rewrite pointer args."""
        spec = self.spec_for(name)
        runtime = self.runtime
        runtime.charge(SANITIZE_BASE_CYCLES, "sanitizer")
        out = MarshalledCall(proxy_args=list(args))
        self.calls_sanitized += 1
        for index, arg_spec in enumerate(spec.args):
            if index >= len(args):
                break
            value = args[index]
            if arg_spec.kind == ArgKind.SCALAR:
                continue
            if arg_spec.kind == ArgKind.PATH:
                # Paths are passed as Python strings; charge the copy.
                runtime.charge_copy(len(str(value)) + 1)
                continue
            if arg_spec.kind == ArgKind.BUF_IN:
                length = self._buffer_length(spec, index, args)
                staging = runtime.staging_alloc(length)
                if length:
                    runtime.stage_out(int(value), staging, length)
                out.proxy_args[index] = staging
                out.bytes_out += length
            elif arg_spec.kind == ArgKind.BUF_OUT:
                length = self._buffer_length(spec, index, args)
                staging = runtime.staging_alloc(length)
                out.proxy_args[index] = staging
                out.copy_back.append((staging, int(value), length))
                out.bytes_in += length
            elif arg_spec.kind == ArgKind.IOVEC_IN:
                new_iov = []
                for vaddr, length in value:
                    _checked_length(name, arg_spec.name, length)
                    staging = runtime.staging_alloc(length)
                    if length:
                        runtime.stage_out(int(vaddr), staging, length)
                    new_iov.append((staging, length))
                    out.bytes_out += length
                out.proxy_args[index] = new_iov
            elif arg_spec.kind == ArgKind.IOVEC_OUT:
                new_iov = []
                for vaddr, length in value:
                    _checked_length(name, arg_spec.name, length)
                    staging = runtime.staging_alloc(length)
                    new_iov.append((staging, length))
                    out.copy_back.append((staging, int(vaddr), length))
                    out.bytes_in += length
                out.proxy_args[index] = new_iov
        return out

    def finish(self, name: str, marshalled: MarshalledCall,
               result) -> None:
        """Copy results back into the enclave and IAGO-check pointers."""
        spec = SYSCALL_SPECS[name]
        runtime = self.runtime
        # An int result is the byte count: it fills the copy-back
        # buffers in order, and nothing past it leaves staging.
        remaining = result if isinstance(result, int) else None
        for staging, enclave_vaddr, length in marshalled.copy_back:
            take = length
            if remaining is not None:
                take = max(0, min(length, remaining))
                remaining -= take
            if take:
                runtime.stage_in(staging, enclave_vaddr, take)
        if spec.returns_pointer and isinstance(result, int):
            # The returned region is [result, result + length) when the
            # spec names a length argument (mmap), else the point.
            length = 1
            if spec.returns_len_from is not None:
                length = marshalled.proxy_args[spec.returns_len_from]
                if type(length) is not int or length < 1:
                    length = 1
            if runtime.address_in_enclave(result, length):
                self.iago_rejections += 1
                raise SecurityViolation(
                    f"IAGO attack: OS returned region {result:#x}+"
                    f"{length:#x} overlapping enclave memory")
