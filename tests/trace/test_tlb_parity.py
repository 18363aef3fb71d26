"""The soft TLB on real workloads: the cache is used, and it hits.

Cycle totals and traces never depend on what the cache holds: the
checked access path is pinned against a cache-free model of the SNP
rules (``tests/hw/test_snp_reference.py``) and every exported output by
digest (``tests/test_golden_outputs.py``).  These tests check that the
cache earns its place on the paper's workloads.
"""

from repro.core import VeilConfig, boot_veil_system
from repro.enclave import EnclaveHost, build_test_binary
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.trace import Tracer
from repro.workloads.trace_demo import TRACE_WORKLOADS

#: The redirected-syscall sweep: per iteration, read a 16 KiB file into
#: the enclave heap, peek the whole buffer SWEEPS times, then peek it
#: again in STRIDE-byte steps.
ITERS = 4
SWEEPS = 300
BUFSIZE = 16384
STRIDE = 64
#: The hit-rate floor the sweep must clear, for translations and for
#: RMP verdicts.
MIN_HIT_RATE = 0.90


def test_quickstart_cached_run_gets_hits():
    runner, _desc = TRACE_WORKLOADS["quickstart"]
    stats = runner(Tracer()).machine.tlb_stats()
    assert stats["hits"] > 0
    assert stats["rmp_hits"] > 0
    assert stats["flushes"] > 0


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


def test_cache_pays_for_itself():
    """The sweep hits more than 90% of its translations and RMP
    verdicts (boot and launch not counted)."""
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2, log_storage_pages=64))
    host = EnclaveHost(system, build_test_binary("sweep", heap_pages=16))
    host.launch()
    before = system.machine.tlb_stats()
    host.run(_sweep)
    stats = {name: value - before[name]
             for name, value in system.machine.tlb_stats().items()}
    for hits, misses in (("hits", "misses"), ("rmp_hits", "rmp_misses")):
        looked_up = max(1, stats[hits] + stats[misses])
        assert stats[hits] / looked_up > MIN_HIT_RATE, stats
