"""Workload models for the paper's evaluation programs."""

from .audit_programs import AUDITED_PROGRAMS, audited_program_by_name
from .base import AppApi, NativeApi, Program, RunStats, measure
from .programs import ENCLAVE_PROGRAMS, program_by_name
from .spec import SPEC_WORKLOADS
from .syscall_bench import SYSCALL_BENCHES, SyscallBench, run_bench

__all__ = [
    "AUDITED_PROGRAMS", "audited_program_by_name",
    "AppApi", "NativeApi", "Program", "RunStats", "measure",
    "ENCLAVE_PROGRAMS", "program_by_name",
    "SPEC_WORKLOADS", "SYSCALL_BENCHES",
    "SyscallBench", "run_bench",
]
