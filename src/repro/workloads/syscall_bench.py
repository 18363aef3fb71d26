"""Fig. 4 / Table 3: the enclave system-call microbenchmarks.

Seven benchmarks with exactly the paper's parameters (Table 3):

=========  ==========================================================
open       open a text file with read and write permissions
read       read 10 KB from a file into a memory-mapped region
write      write 10 KB from a memory-mapped region to a file
mmap       map a 10 KB region using the NULL file descriptor
munmap     unmap the 10 KB region previously mapped
socket     open a socket using AF_INET and SOCK_STREAM
printf     print a "Hello World!" message to the console
=========  ==========================================================

Each benchmark measures *only* the operation itself; per-iteration
resets (closing fds, seeking back) run outside the measured window.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..kernel.fs import O_CREAT, O_RDWR, SEEK_SET
from ..kernel.net import AF_INET, SOCK_STREAM
from .base import AppApi, RunStats

TEN_KB = 10 * 1024


def _no_op(api: AppApi, state: dict) -> None:
    """Default reset/teardown: nothing to do between iterations."""


@dataclass
class SyscallBench:
    """One microbenchmark: setup once, measure ``operate`` per iter."""

    name: str
    setup: typing.Callable[[AppApi, dict], None]
    operate: typing.Callable[[AppApi, dict], None]
    reset: typing.Callable[[AppApi, dict], None] = field(default=_no_op)
    teardown: typing.Callable[[AppApi, dict], None] = \
        field(default=_no_op)


# ---- open -----------------------------------------------------------------

def _open_setup(api, state):
    fd = api.open("/tmp/bench-open.txt", O_CREAT | O_RDWR)
    api.close(fd)
    state["opened"] = []


def _open_op(api, state):
    state["opened"].append(api.open("/tmp/bench-open.txt", O_RDWR))


def _open_reset(api, state):
    for fd in state.pop("opened"):
        api.close(fd)
    state["opened"] = []


# ---- read / write ------------------------------------------------------------

def _read_setup(api, state):
    fd = api.open("/tmp/bench-rw.bin", O_CREAT | O_RDWR)
    api.write(fd, b"\xab" * TEN_KB)
    api.lseek(fd, 0, SEEK_SET)
    state["fd"] = fd


def _read_op(api, state):
    api.read(state["fd"], TEN_KB)


def _rw_reset(api, state):
    api.lseek(state["fd"], 0, SEEK_SET)


def _write_op(api, state):
    api.write(state["fd"], b"\xcd" * TEN_KB)


def _rw_teardown(api, state):
    api.close(state["fd"])


# ---- mmap / munmap ---------------------------------------------------------------

def _mmap_setup(api, state):
    state["addrs"] = []


def _mmap_op(api, state):
    state["addrs"].append(api.mmap(TEN_KB))


def _mmap_reset(api, state):
    for addr in state.pop("addrs"):
        api.munmap(addr, TEN_KB)
    state["addrs"] = []


def _munmap_setup(api, state):
    state["addr"] = api.mmap(TEN_KB)


def _munmap_op(api, state):
    api.munmap(state["addr"], TEN_KB)


def _munmap_reset(api, state):
    state["addr"] = api.mmap(TEN_KB)


# ---- socket -------------------------------------------------------------------------

def _socket_setup(api, state):
    state["socks"] = []


def _socket_op(api, state):
    state["socks"].append(api.socket(AF_INET, SOCK_STREAM))


def _socket_reset(api, state):
    for fd in state.pop("socks"):
        api.close(fd)
    state["socks"] = []


# ---- printf ----------------------------------------------------------------------------

def _printf_op(api, state):
    api.printf("Hello World!\n")


SYSCALL_BENCHES = (
    SyscallBench("open", _open_setup, _open_op, _open_reset),
    SyscallBench("read", _read_setup, _read_op, _rw_reset, _rw_teardown),
    SyscallBench("write", _read_setup, _write_op, _rw_reset, _rw_teardown),
    SyscallBench("mmap", _mmap_setup, _mmap_op, _mmap_reset),
    SyscallBench("munmap", _munmap_setup, _munmap_op, _munmap_reset),
    SyscallBench("socket", _socket_setup, _socket_op, _socket_reset),
    SyscallBench("printf", lambda api, state: None, _printf_op),
)


def run_bench(machine, api: AppApi, bench: SyscallBench, *,
              iterations: int = 50) -> RunStats:
    """Run one microbenchmark; returns per-iteration average stats."""
    state: dict = {}
    bench.setup(api, state)
    ledger = machine.ledger
    measured = 0
    before_all = ledger.snapshot()
    for _ in range(iterations):
        before = ledger.total
        bench.operate(api, state)
        measured += ledger.total - before
        bench.reset(api, state)
    bench.teardown(api, state)
    delta = ledger.since(before_all)
    return RunStats(name=bench.name, cycles=measured // iterations,
                    by_category=dict(delta.by_category))
