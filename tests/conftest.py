"""Shared fixtures for the Veil reproduction test suite."""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.core import VeilConfig, boot_native_system, boot_veil_system
from repro.hw import SevSnpMachine

SMALL_CONFIG = VeilConfig(memory_bytes=32 * 1024 * 1024, num_cores=2,
                          log_storage_pages=64)

#: Timed (slow, fast) pairs behind one :func:`cpu_time_ratio` reading.
TIMING_PAIRS = 5


@pytest.fixture
def machine() -> SevSnpMachine:
    """A bare SEV-SNP machine (16 MiB, 2 cores)."""
    return SevSnpMachine(memory_bytes=16 * 1024 * 1024, num_cores=2)


@pytest.fixture
def veil():
    """A fully booted Veil CVM (fresh per test)."""
    return boot_veil_system(SMALL_CONFIG)


@pytest.fixture
def native():
    """A native CVM baseline (fresh per test)."""
    return boot_native_system(SMALL_CONFIG)


@pytest.fixture
def native_proc(native):
    """(system, core, process) triple on the native CVM."""
    proc = native.kernel.create_process("test-proc")
    core = native.boot_core
    return native, core, proc


@pytest.fixture
def veil_proc(veil):
    """(system, core, process) triple on the Veil CVM."""
    proc = veil.kernel.create_process("test-proc")
    core = veil.boot_core
    return veil, core, proc


def _cpu_seconds(run) -> float:
    """CPU time of one ``run()``, with the garbage collector paused."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        run()
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def cpu_time_ratio():
    """Median ``slow / fast`` CPU-time ratio of two ways to run one job.

    ``cpu_time_ratio(slow, fast)`` takes two setup functions.  Each call
    of one prepares a run (boots systems, builds fleets) and returns the
    zero-argument callable to time, so setup never lands in the timed
    region.  It times :data:`TIMING_PAIRS` pairs, alternating which side
    runs first, and returns the median of the per-pair ratios: a
    within-process ratio that a slow or busy host scales on both sides.
    """
    def ratio(slow, fast) -> float:
        sides = (slow, fast)
        ratios = []
        for pair in range(TIMING_PAIRS):
            seconds = [0.0, 0.0]
            for index in ((0, 1) if pair % 2 == 0 else (1, 0)):
                seconds[index] = _cpu_seconds(sides[index]())
            ratios.append(seconds[0] / seconds[1])
        return statistics.median(ratios)
    return ratio
