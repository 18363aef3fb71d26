"""Counters and cycle histograms aggregated from the trace stream.

Where the ring buffer in :mod:`repro.trace.tracer` keeps the *recent*
event tail, the metrics registry keeps *lossless aggregates* for the
whole run: how many times each syscall dispatched, the cycle
distribution of each service operation, how often each domain-switch
pair (``DomUNT->DomMON`` etc.) occurred.  Benchmarks read these instead
of hand-diffing ledger snapshots, and the registry dump is part of the
byte-identical determinism contract.
"""

from __future__ import annotations


class Tally(dict):
    """A ``dict`` of counts that reads a missing key as 0.

    ``tally[key] += n`` reads 0 for a new key and then stores it, so a
    zero increment still creates its key; a bare read of a missing key
    inserts nothing.  Keys keep insertion order, as in any ``dict``.

    :meth:`__missing__` is the only override, so CPython keeps every
    store on the plain ``dict`` path.  ``collections.Counter`` defines
    ``__delitem__`` in Python, and a ``dict`` subclass that does routes
    every store, ``+=`` included, through the generic Python-level
    subscript slot: about 4x the cost of a store here on CPython 3.11
    (docs/PERFORMANCE.md, "Cheap primitives").  The cycle ledger and
    the syscall and metrics counters store into one on every charge
    or count.
    """

    __slots__ = ()

    def __missing__(self, key) -> int:
        return 0


class CycleHistogram:
    """Power-of-two bucketed distribution of cycle observations.

    Buckets are ``bit_length`` of the observation, so bucket ``b`` holds
    values in ``[2**(b-1), 2**b)`` (bucket 0 holds exactly zero).  A
    handful of integer buckets is enough to tell a 3k-cycle VMGEXIT from
    a 7k-cycle full switch without storing every sample.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0
        self.buckets: Tally = Tally()

    def observe(self, cycles: int) -> None:
        """Record one observation of ``cycles``."""
        if self.count == 0:
            self.min = cycles
            self.max = cycles
        else:
            if cycles < self.min:
                self.min = cycles
            if cycles > self.max:
                self.max = cycles
        self.count += 1
        self.total += cycles
        self.buckets[cycles.bit_length()] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Deterministic plain-data form for export/dumps."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


#: Sub-bucket precision of :class:`LatencyHistogram`: every recorded
#: value keeps its top ``LATENCY_SUB_BITS + 1`` significant bits, so the
#: quantization error is bounded below ``2**-LATENCY_SUB_BITS`` (< 0.4%)
#: and every value smaller than ``2**(LATENCY_SUB_BITS + 1)`` is exact.
LATENCY_SUB_BITS = 8

#: Default saturation point (cycles).  2**48 cycles is ~26 hours of
#: simulated time at the 3 GHz nominal clock -- far beyond any run.
LATENCY_MAX_VALUE = 1 << 48


class LatencyHistogram:
    """Fixed-bucket HDR-style distribution with exact-rank percentiles.

    Where :class:`CycleHistogram` keeps a coarse power-of-two profile,
    this records enough resolution to answer p50/p95/p99 queries the way
    a sorted sample would: the value range is covered by logarithmic
    buckets each split into ``2**LATENCY_SUB_BITS`` linear sub-buckets
    (the HdrHistogram layout), so bucket membership loses at most the
    bits below the top ``LATENCY_SUB_BITS + 1`` -- values up to
    ``2**(LATENCY_SUB_BITS + 1)`` are recorded exactly, larger ones with
    relative error below ``2**-LATENCY_SUB_BITS``.  Storage is a sparse
    :class:`Tally` over bucket indices, so memory is bounded by the
    number of *distinct* quantized values, never the observation count.

    Percentiles use the nearest-rank definition: ``percentile(p)`` over
    ``n`` observations is the value at sorted index
    ``ceil(p/100 * n) - 1``, reported as the lowest value mapping to the
    matched bucket.  Values above ``max_value`` saturate into a
    dedicated overflow bucket (counted in :attr:`overflow`) and report
    as ``max_value`` so a runaway outlier can never silently vanish.
    """

    __slots__ = ("count", "total", "min", "max", "overflow",
                 "max_value", "buckets")

    def __init__(self, max_value: int = LATENCY_MAX_VALUE):
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0
        #: Observations that exceeded ``max_value`` (also in ``count``).
        self.overflow = 0
        self.max_value = max_value
        self.buckets: Tally = Tally()

    @staticmethod
    def _index(value: int) -> int:
        """Bucket index: (shift, top bits) packed into one integer."""
        shift = value.bit_length() - (LATENCY_SUB_BITS + 1)
        if shift <= 0:
            return value
        return (shift << (LATENCY_SUB_BITS + 1)) | (value >> shift)

    @staticmethod
    def _value(index: int) -> int:
        """Lowest value mapping to bucket ``index`` (inverse of _index)."""
        shift = index >> (LATENCY_SUB_BITS + 1)
        if shift == 0:
            return index
        return (index & ((1 << (LATENCY_SUB_BITS + 1)) - 1)) << shift

    def observe(self, cycles: int) -> None:
        """Record one observation of ``cycles`` (negatives clamp to 0)."""
        if cycles < 0:
            cycles = 0
        if self.count == 0:
            self.min = cycles
            self.max = cycles
        else:
            if cycles < self.min:
                self.min = cycles
            if cycles > self.max:
                self.max = cycles
        self.count += 1
        self.total += cycles
        if cycles > self.max_value:
            self.overflow += 1
            cycles = self.max_value
        self.buckets[self._index(cycles)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile ``p`` in ``[0, 100]`` (0 when empty)."""
        if self.count == 0:
            return 0
        if p <= 0:
            rank = 1
        else:
            # ceil(p/100 * n), in exact integer math for integral p.
            if float(p).is_integer():
                rank = -((-int(p) * self.count) // 100)
            else:
                rank = -int(-p * self.count // 100)
            rank = min(max(rank, 1), self.count)
        seen = 0
        floor = min(self.min, self.max_value)
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # A bucket's reported value is its *floor*, which for a
                # quantized sample can dip below the smallest value ever
                # observed (e.g. a single 1001-cycle sample reports its
                # 1000-cycle bucket floor).  Clamp into the observed
                # range; ``min`` itself saturates at ``max_value`` so
                # overflow samples still report the saturation point.
                return max(self._value(index), floor)
        return max(self._value(max(self.buckets)), floor)  # pragma: no cover

    def percentiles(self, points=(50, 95, 99)) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for ``points``."""
        return {f"p{point:g}": self.percentile(point) for point in points}

    def as_dict(self) -> dict:
        """Deterministic plain-data form for export/dumps."""
        out = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
            "overflow": self.overflow,
        }
        out.update(self.percentiles())
        return out


class MetricsRegistry:
    """Named counters plus per-key cycle histograms.

    Counters are namespaced ``name/key`` (e.g. ``syscall/open``,
    ``switch/DomUNT->DomMON``); histograms use the same addressing.  The
    tracer feeds ``span`` counts and ``cycles`` histograms automatically
    on every span close; instrumented layers add their own domain
    counters (``vmgexit``, ``syscall``, ``service``, ``switch``).
    """

    def __init__(self):
        self.counters: Tally = Tally()
        self.histograms: dict[str, CycleHistogram] = {}
        self.latencies: dict[str, LatencyHistogram] = {}

    def count(self, name: str, key: str | None = None, n: int = 1) -> None:
        """Increment counter ``name`` (or ``name/key``) by ``n``."""
        self.counters[name if key is None else f"{name}/{key}"] += n

    def observe(self, name: str, key: str, cycles: int) -> None:
        """Record ``cycles`` into histogram ``name/key``."""
        full = f"{name}/{key}"
        hist = self.histograms.get(full)
        if hist is None:
            hist = self.histograms[full] = CycleHistogram()
        hist.observe(cycles)

    def record_latency(self, name: str, key: str, cycles: int) -> None:
        """Record ``cycles`` into the percentile-grade ``name/key``
        latency histogram (veil-scope request telemetry)."""
        full = f"{name}/{key}"
        hist = self.latencies.get(full)
        if hist is None:
            hist = self.latencies[full] = LatencyHistogram()
        hist.observe(cycles)

    def counter(self, name: str, key: str | None = None) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters[name if key is None else f"{name}/{key}"]

    def histogram(self, name: str, key: str) -> CycleHistogram | None:
        """The histogram at ``name/key``, or None if never observed."""
        return self.histograms.get(f"{name}/{key}")

    def latency(self, name: str, key: str) -> LatencyHistogram | None:
        """The latency histogram at ``name/key``, or None."""
        return self.latencies.get(f"{name}/{key}")

    def latencies_named(self, name: str) -> dict:
        """All ``name/<key>`` latency histograms, keyed by ``<key>``."""
        prefix = f"{name}/"
        return {k[len(prefix):]: v for k, v in
                sorted(self.latencies.items()) if k.startswith(prefix)}

    def counters_named(self, name: str) -> dict[str, int]:
        """All ``name/<key>`` counters, keyed by ``<key>``."""
        prefix = f"{name}/"
        return {k[len(prefix):]: v for k, v in self.counters.items()
                if k.startswith(prefix)}

    def dump(self) -> dict:
        """Deterministic plain-data snapshot of the whole registry."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {k: self.histograms[k].as_dict()
                           for k in sorted(self.histograms)},
            "latency": {k: self.latencies[k].as_dict()
                        for k in sorted(self.latencies)},
        }


class NullMetrics:
    """No-op registry used by the :class:`~repro.trace.NullTracer`."""

    counters: Tally = Tally()
    histograms: dict = {}
    latencies: dict = {}

    def count(self, name, key=None, n=1) -> None:
        """No-op (tracing disabled)."""

    def observe(self, name, key, cycles) -> None:
        """No-op (tracing disabled)."""

    def record_latency(self, name, key, cycles) -> None:
        """No-op (tracing disabled)."""

    def counter(self, name, key=None) -> int:
        """Always zero."""
        return 0

    def histogram(self, name, key):
        """Always None."""
        return None

    def latency(self, name, key):
        """Always None."""
        return None

    def latencies_named(self, name) -> dict:
        """Always empty."""
        return {}

    def counters_named(self, name) -> dict:
        """Always empty."""
        return {}

    def dump(self) -> dict:
        """The empty registry snapshot."""
        return {"counters": {}, "histograms": {}, "latency": {}}


#: Process-wide shared no-op registry.
NULL_METRICS = NullMetrics()
