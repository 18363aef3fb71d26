"""Cross-mode determinism: VEIL_TLB=0 and VEIL_TLB=1 agree exactly.

The software TLB (veil-turbo) is a wall-clock optimization of the
simulator, not a change to the modeled machine: with the cache on or
off, every workload must charge identical cycle totals, identical
per-category breakdowns, and export byte-identical Chrome traces.
These tests pin that invariant on the trace demo workloads and on the
paper's Fig. 4 syscall benches, and check that the cache pays for
itself in CPU time.
"""

from functools import partial

import pytest

from repro.core import VeilConfig, boot_veil_system
from repro.enclave import EnclaveHost, build_test_binary
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.trace import Tracer, dumps_chrome_trace
from repro.workloads.trace_demo import TRACE_WORKLOADS

#: The redirected-syscall sweep the cache must speed up: per iteration,
#: read a 16 KiB file into the enclave heap, peek the whole buffer
#: SWEEPS times, then peek it again in STRIDE-byte steps.
ITERS = 4
SWEEPS = 300
BUFSIZE = 16384
STRIDE = 64
#: The speedup floor and hit-rate floors the cache must clear.
MIN_SPEEDUP = 1.25
MIN_HIT_RATE = 0.90


def _run_workload(monkeypatch, name, tlb):
    monkeypatch.setenv("VEIL_TLB", "1" if tlb else "0")
    runner, _desc = TRACE_WORKLOADS[name]
    tracer = Tracer()
    system = runner(tracer)
    return {
        "total": system.machine.ledger.total,
        "by_category": dict(system.machine.ledger.by_category),
        "chrome": dumps_chrome_trace(tracer),
        "tlb_stats": system.machine.tlb_stats(),
    }


@pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
def test_trace_workload_parity(monkeypatch, name):
    uncached = _run_workload(monkeypatch, name, tlb=False)
    cached = _run_workload(monkeypatch, name, tlb=True)
    assert uncached["total"] == cached["total"]
    assert uncached["by_category"] == cached["by_category"]
    assert uncached["chrome"] == cached["chrome"]
    # The uncached run never touched the cache; the cached run did.
    stats = uncached["tlb_stats"]
    assert stats["hits"] == stats["misses"] == 0
    assert cached["tlb_stats"]["misses"] > 0


def test_quickstart_cached_run_gets_hits(monkeypatch):
    cached = _run_workload(monkeypatch, "quickstart", tlb=True)
    stats = cached["tlb_stats"]
    assert stats["hits"] > 0
    assert stats["rmp_hits"] > 0
    assert stats["flushes"] > 0


def test_fig4_rows_identical_across_modes(monkeypatch):
    from repro.bench import run_fig4

    monkeypatch.setenv("VEIL_TLB", "0")
    uncached = run_fig4(iterations=3)
    monkeypatch.setenv("VEIL_TLB", "1")
    cached = run_fig4(iterations=3)
    assert uncached == cached


def test_config_overrides_environment(monkeypatch):
    from repro.core import VeilConfig, boot_veil_system

    monkeypatch.setenv("VEIL_TLB", "0")
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64, tlb=True))
    assert system.machine.tlb_enabled is True
    monkeypatch.setenv("VEIL_TLB", "1")
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64, tlb=False))
    assert system.machine.tlb_enabled is False


def _sweep(libc):
    """Enclave ``main``: the hot-page sweep over a redirected read."""
    fd = libc.open("/tmp/sweep", O_CREAT | O_RDWR)
    libc.write(fd, b"y" * BUFSIZE)
    total = 0
    for _ in range(ITERS):
        libc.lseek(fd, 0, 0)
        data = libc.read(fd, BUFSIZE)
        buf = libc.malloc(BUFSIZE)
        libc.poke(buf, data)
        for _ in range(SWEEPS):
            total += len(libc.peek(buf, BUFSIZE))
        for off in range(0, BUFSIZE, STRIDE):
            total += len(libc.peek(buf + off, STRIDE))
        libc.free(buf)
    libc.close(fd)
    return total


def _sweep_host(tlb: bool) -> EnclaveHost:
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64, tlb=tlb))
    host = EnclaveHost(system, build_test_binary("sweep", heap_pages=16))
    host.launch()
    return host


def test_cache_pays_for_itself(cpu_time_ratio):
    """Same cycles, >90% hit rates, and at least 1.25x less CPU time."""
    uncached, cached = _sweep_host(tlb=False), _sweep_host(tlb=True)
    speedup = cpu_time_ratio(lambda: partial(uncached.run, _sweep),
                             lambda: partial(cached.run, _sweep))
    assert (uncached.system.machine.ledger.total ==
            cached.system.machine.ledger.total)
    assert speedup >= MIN_SPEEDUP, f"cache speedup {speedup:.2f}x"
    stats = cached.system.machine.tlb_stats()
    for hits, misses in (("hits", "misses"), ("rmp_hits", "rmp_misses")):
        looked_up = max(1, stats[hits] + stats[misses])
        assert stats[hits] / looked_up > MIN_HIT_RATE, stats
