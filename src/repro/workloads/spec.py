"""Section 9.1 "background system impact": SPEC CPU-style workloads.

These run as ordinary (non-enclave, non-audited) processes to compare
native CVM execution against a Veil CVM with no protected service in use.
The paper measures <2% difference; in this model the only Veil-specific
runtime work is the rare delegated operation, so the difference comes out
near zero -- which is the point of the experiment.
"""

from __future__ import annotations

from ..kernel.fs import O_CREAT, O_RDWR
from .base import AppApi, Program


def _pure_compute(total_cycles: int, slices: int = 40):
    def run(api: AppApi, state: dict):
        for _ in range(slices):
            api.compute(total_cycles // slices)
        return slices
    return run


def _spec_mix_run(api: AppApi, state: dict):
    """perlbench-style mix: compute with occasional file I/O."""
    fd = api.open("/tmp/spec-scratch", O_CREAT | O_RDWR)
    for _ in range(30):
        api.compute(2_500_000)
        api.write(fd, b"checkpoint" * 10)
    api.close(fd)
    return 30


def _io_mix(compute_per_op: int, ops: int, io_bytes: int):
    """gcc/xalancbmk-style mix: compute interleaved with file I/O."""
    def run(api: AppApi, state: dict):
        fd = api.open("/tmp/spec-io", O_CREAT | O_RDWR)
        for _ in range(ops):
            api.compute(compute_per_op)
            api.write(fd, b"o" * io_bytes)
        api.close(fd)
        return ops
    return run


def _alloc_mix(compute_per_op: int, ops: int, map_bytes: int):
    """mcf/omnetpp-style mix: compute with allocation churn."""
    def run(api: AppApi, state: dict):
        for _ in range(ops):
            addr = api.mmap(map_bytes)
            api.compute(compute_per_op)
            api.munmap(addr, map_bytes)
        return ops
    return run


#: A SPEC CPU 2006-shaped suite: named workloads with the component
#: benchmarks' characteristic mixes (pure integer/fp compute, pointer-
#: chasing with allocation churn, I/O-interleaved compilation, ...).
SPEC_WORKLOADS = (
    Program("spec-int-compute", lambda kernel: {},
            _pure_compute(90_000_000)),
    Program("spec-fp-compute", lambda kernel: {},
            _pure_compute(120_000_000, slices=60)),
    Program("spec-perlbench-mix", lambda kernel: {},
            _spec_mix_run),
    Program("spec-bzip2", lambda kernel: {},
            _io_mix(3_000_000, 25, 4096)),
    Program("spec-gcc", lambda kernel: {},
            _io_mix(1_800_000, 40, 1024)),
    Program("spec-mcf", lambda kernel: {},
            _alloc_mix(2_400_000, 30, 16384)),
    Program("spec-omnetpp", lambda kernel: {},
            _alloc_mix(1_500_000, 45, 8192)),
    Program("spec-libquantum", lambda kernel: {},
            _pure_compute(150_000_000, slices=30)),
    Program("spec-hmmer", lambda kernel: {},
            _pure_compute(110_000_000, slices=50)),
    Program("spec-sjeng", lambda kernel: {},
            _pure_compute(95_000_000, slices=45)),
)
