"""veil-turbo speedup harness: software TLB on vs. off, same cycles.

The microbenchmark is the paper's syscall-redirection shape, driven hot:
an enclave opens a file through the redirected libc, writes and reads a
multi-page buffer (each redirected ``read``/``write`` funnels kilobytes
through :meth:`~repro.hw.vcpu.VirtualCpu.read`/``write``), then consumes
the buffer with dense ``peek`` sweeps -- cross-page gathers plus a
stride of small intra-page reads.  That mix exercises exactly what the
software TLB caches: repeated translations of the same hot pages and
repeated RMP verdicts for the same ``(page, vmpl, access)`` triples
across world switches.

Two full systems are booted -- one with ``VeilConfig(tlb=False)``, one
with ``tlb=True`` -- and the *same* workload runs on both.  Reported:

* wall-clock per mode (best of ``repeats``, boot excluded, GC paused
  during timing so collector pauses don't land in one mode's lap);
* the speedup ratio (uncached / cached);
* TLB hit rates from :meth:`~repro.hw.platform.SevSnpMachine.tlb_stats`,
  also published into a :class:`~repro.trace.MetricsRegistry` under
  ``tlb/...`` (the same names ``repro trace`` summaries show);
* a cycle-parity check: both modes must report *identical* ledger
  totals, the "the cache is an optimization, not a model change"
  invariant.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass

from ..core.boot import VeilConfig, boot_veil_system
from ..enclave import EnclaveHost, build_test_binary
from ..kernel.fs import O_CREAT, O_RDWR
from ..trace import MetricsRegistry

#: Workload sizing: chosen so the measured region runs long enough to
#: time stably (tens of milliseconds) and the peek sweeps dominate the
#: fixed per-syscall machinery (domain switches, GHCB marshalling) that
#: the TLB cannot speed up.
TURBO_ITERS = 4
TURBO_SWEEPS = 300
TURBO_BUFSIZE = 16384
TURBO_STRIDE = 64


@dataclass(frozen=True)
class TurboResult:
    """One veil-turbo comparison run (uncached vs. cached)."""

    uncached_seconds: float
    cached_seconds: float
    cycles_uncached: int
    cycles_cached: int
    tlb_stats: dict
    iters: int
    sweeps: int
    bufsize: int
    repeats: int

    @property
    def speedup(self) -> float:
        """Wall-clock ratio uncached / cached (higher is better)."""
        return self.uncached_seconds / self.cached_seconds

    @property
    def cycles_equal(self) -> bool:
        """Whether both modes charged identical cycle totals."""
        return self.cycles_uncached == self.cycles_cached

    @property
    def hit_rate(self) -> float:
        """Translation-cache hit rate in ``[0, 1]``."""
        total = self.tlb_stats["hits"] + self.tlb_stats["misses"]
        return self.tlb_stats["hits"] / total if total else 0.0

    @property
    def rmp_hit_rate(self) -> float:
        """RMP verdict-cache hit rate in ``[0, 1]``."""
        total = self.tlb_stats["rmp_hits"] + self.tlb_stats["rmp_misses"]
        return self.tlb_stats["rmp_hits"] / total if total else 0.0

    def metrics(self) -> MetricsRegistry:
        """The cached run's TLB counters as trace metrics (``tlb/...``)."""
        registry = MetricsRegistry()
        for name, value in self.tlb_stats.items():
            if value:
                registry.count("tlb", name, value)
        return registry

    def as_dict(self) -> dict:
        """JSON-serializable result (the ``BENCH_turbo.json`` payload)."""
        return {
            "uncached_seconds": self.uncached_seconds,
            "cached_seconds": self.cached_seconds,
            "speedup": self.speedup,
            "cycles_uncached": self.cycles_uncached,
            "cycles_cached": self.cycles_cached,
            "cycles_equal": self.cycles_equal,
            "tlb_hit_rate": self.hit_rate,
            "rmp_hit_rate": self.rmp_hit_rate,
            "tlb_stats": dict(self.tlb_stats),
            "metrics": self.metrics().dump(),
            "workload": {"iters": self.iters, "sweeps": self.sweeps,
                         "bufsize": self.bufsize, "stride": TURBO_STRIDE,
                         "repeats": self.repeats},
        }


def _syscall_workload(iters: int, sweeps: int, bufsize: int):
    """Enclave ``main(libc)`` for the syscall-redirection microbench."""
    def main(libc):
        fd = libc.open("/tmp/turbo", O_CREAT | O_RDWR)
        libc.write(fd, b"y" * bufsize)
        total = 0
        for _ in range(iters):
            libc.lseek(fd, 0, 0)
            data = libc.read(fd, bufsize)
            buf = libc.malloc(bufsize)
            libc.poke(buf, data)
            for _ in range(sweeps):
                total += len(libc.peek(buf, bufsize))
            for off in range(0, bufsize, TURBO_STRIDE):
                total += len(libc.peek(buf + off, TURBO_STRIDE))
            libc.free(buf)
        libc.close(fd)
        return total
    return main


def _run_mode(tlb: bool, iters: int, sweeps: int, bufsize: int,
              repeats: int) -> tuple[float, int, dict]:
    """Boot one system, run the workload ``repeats`` times, keep the best.

    Boot is excluded from the timing; GC is paused around each measured
    run so collector pauses cannot skew one mode.
    """
    system = boot_veil_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64, tlb=tlb))
    host = EnclaveHost(system, build_test_binary("turbo", heap_pages=16))
    host.launch()
    main = _syscall_workload(iters, sweeps, bufsize)
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            host.run(main)
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        if elapsed < best:
            best = elapsed
    return best, system.machine.ledger.total, system.machine.tlb_stats()


def run_turbo(*, iters: int = TURBO_ITERS, sweeps: int = TURBO_SWEEPS,
              bufsize: int = TURBO_BUFSIZE,
              repeats: int = 3) -> TurboResult:
    """Run the uncached-vs-cached comparison and return the result."""
    uncached_wall, uncached_cycles, _ = _run_mode(
        False, iters, sweeps, bufsize, repeats)
    cached_wall, cached_cycles, stats = _run_mode(
        True, iters, sweeps, bufsize, repeats)
    return TurboResult(
        uncached_seconds=uncached_wall, cached_seconds=cached_wall,
        cycles_uncached=uncached_cycles, cycles_cached=cached_cycles,
        tlb_stats=stats, iters=iters, sweeps=sweeps, bufsize=bufsize,
        repeats=repeats)


def render_turbo(result: TurboResult) -> str:
    """Human-readable report of one comparison run."""
    lines = [
        "veil-turbo: software TLB speedup "
        "(syscall-redirection microbenchmark)",
        f"  workload: {result.iters} iterations x {result.sweeps} "
        f"sweeps over a {result.bufsize}-byte buffer "
        f"(best of {result.repeats})",
        f"  uncached (VEIL_TLB=0): {result.uncached_seconds * 1e3:8.2f} ms",
        f"  cached   (VEIL_TLB=1): {result.cached_seconds * 1e3:8.2f} ms",
        f"  speedup: {result.speedup:.2f}x",
        f"  cycle parity: {'OK' if result.cycles_equal else 'VIOLATED'} "
        f"({result.cycles_uncached} vs {result.cycles_cached})",
        f"  tlb hit rate: {result.hit_rate:6.1%}   "
        f"rmp verdict hit rate: {result.rmp_hit_rate:6.1%}",
    ]
    stats = result.tlb_stats
    lines.append(
        "  counters: " + ", ".join(
            f"{name}={stats[name]}" for name in
            ("hits", "misses", "rmp_hits", "rmp_misses", "flushes",
             "table_invalidations", "rmp_invalidations")))
    return "\n".join(lines)


def write_turbo_json(result: TurboResult, path: str) -> None:
    """Write the ``BENCH_turbo.json`` artifact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
