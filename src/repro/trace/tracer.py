"""Cycle-clocked span tracing over a bounded ring buffer.

The tracer is the observability backbone of the simulator: every layer
(hardware, hypervisor, kernel, monitor, services, enclave SDK) opens
*spans* around its load-bearing operations and emits *instant* events at
point occurrences (automatic exits, audit appends, #NPFs).  Three design
rules keep it faithful to the rest of the reproduction:

1. **Virtual clock.**  Timestamps come from the machine's
   :class:`~repro.hw.cycles.CycleLedger`, never from wall time, so two
   identical runs produce *byte-identical* traces (a tested invariant)
   and span durations are exactly the cycles the paper's evaluation
   attributes (e.g. the 7135-cycle domain switch).
2. **Zero perturbation.**  Recording charges nothing to the ledger:
   tracing is an instrument, not a workload.  Cycle totals are identical
   with tracing on or off.
3. **Bounded memory.**  Events live in a fixed-capacity ring
   (:data:`DEFAULT_CAPACITY`); old events are dropped (and counted), so
   arbitrarily long benchmark runs cannot accumulate memory without
   bound.  The :class:`NullTracer` keeps the disabled path at near-zero
   overhead.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError
from .metrics import NULL_METRICS, MetricsRegistry

#: Default ring capacity (events).  Big enough to hold the interesting
#: tail of any benchmark; small enough that a tracer is always cheap.
DEFAULT_CAPACITY = 65_536

#: Chrome trace-event phase codes used by this tracer.
PHASE_SPAN = "X"          # complete event (begin + duration)
PHASE_INSTANT = "i"       # point event

#: Attribution value meaning "not attributable" (no core / no instance).
UNATTRIBUTED = -1


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span or instant, timestamped in virtual cycles."""

    phase: str             # PHASE_SPAN or PHASE_INSTANT
    category: str          # layer taxonomy: "hw", "hv", "syscall", ...
    name: str              # operation name ("VMGEXIT", "open", ...)
    ts: int                # begin cycles (ledger total at open)
    dur: int               # span duration in cycles (0 for instants)
    vcpu: int              # physical core index, or UNATTRIBUTED
    vmpl: int              # VMPL at open, or UNATTRIBUTED
    pid: int               # guest process id, or UNATTRIBUTED
    seq: int               # monotonic record sequence number
    args: tuple = ()       # sorted (key, value) pairs of structured args

    @property
    def end(self) -> int:
        """Cycle timestamp at which the span closed."""
        return self.ts + self.dur

    def args_dict(self) -> dict:
        """Structured args as a plain dict."""
        return dict(self.args)


def _coerce_value(value):
    """Coerce one span-arg value into a JSON-exportable form.

    Coercion happens at *record* time so a bad arg surfaces at the
    offending span, not hundreds of events later at export: primitives
    pass through, bytes become hex, containers recurse, and anything
    else is captured as ``repr()`` (callers owe a deterministic repr —
    the byte-identical-trace parity tests catch one that isn't).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (tuple, list)):
        return [_coerce_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _coerce_value(v) for k, v in value.items()}
    return repr(value)


def _freeze_args(args) -> tuple:
    """Normalize caller args into a deterministic sorted tuple.

    Values are coerced (:func:`_coerce_value`) here rather than at
    export, so every recorded :class:`TraceEvent` is serializable by
    construction.
    """
    if not args:
        return ()
    return tuple(sorted((str(k), _coerce_value(v)) for k, v in args.items()))


class _Span:
    """Context manager recording one complete ("X") event on exit.

    Spans close even when the body raises (e.g. a fail-stop
    :class:`~repro.errors.CvmHalted`), so traces stay balanced across
    the attack suite's halt paths.
    """

    __slots__ = ("_tracer", "_category", "_name", "_vcpu", "_vmpl",
                 "_pid", "_args", "_begin")

    def __init__(self, tracer: "Tracer", category: str, name: str,
                 vcpu: int, vmpl: int, pid: int, args):
        self._tracer = tracer
        self._category = category
        self._name = name
        self._vcpu = vcpu
        self._vmpl = vmpl
        self._pid = pid
        self._args = args
        self._begin = 0

    def __enter__(self) -> "_Span":
        self._begin = self._tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        dur = tracer.now() - self._begin
        if dur < 0:            # clock re-attached mid-span; clamp
            dur = 0
        tracer._record(PHASE_SPAN, self._category, self._name,
                       self._begin, dur, self._vcpu, self._vmpl,
                       self._pid, self._args)
        return False


class Tracer:
    """Span/event recorder clocked by a cycle ledger.

    Construct one, pass it to :class:`~repro.hw.platform.SevSnpMachine`
    (directly or via :class:`~repro.core.boot.VeilConfig`), and every
    layer of the stack records into it.  Export with
    :func:`repro.trace.export.chrome_trace` /
    :func:`repro.trace.export.render_summary`.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: "typing.Callable[[], int] | None" = None):
        if capacity < 1:
            raise SimulationError(
                f"tracer capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.recorded = 0
        self.metrics = MetricsRegistry()
        self._clock: typing.Callable[[], int] = clock or (lambda: 0)

    # -- clock ------------------------------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Clock this tracer off a machine's cycle ledger.

        Called by :class:`~repro.hw.platform.SevSnpMachine` at
        construction.  A tracer shared across several machines (a
        fleet's replicas) is re-attached by each; spans straddling an
        attach clamp their duration at zero rather than going negative.
        """
        self._clock = lambda: ledger.total

    def now(self) -> int:
        """Current virtual time (cycles)."""
        return self._clock()

    # -- recording --------------------------------------------------------

    def span(self, category: str, name: str, *, vcpu: int = UNATTRIBUTED,
             vmpl: int = UNATTRIBUTED, pid: int = UNATTRIBUTED,
             args: dict | None = None) -> _Span:
        """Open a span; use as ``with tracer.span(...):``."""
        return _Span(self, category, name, vcpu, vmpl, pid, args)

    def instant(self, category: str, name: str, *,
                vcpu: int = UNATTRIBUTED, vmpl: int = UNATTRIBUTED,
                pid: int = UNATTRIBUTED, args: dict | None = None) -> None:
        """Record a point event at the current cycle timestamp."""
        self._record(PHASE_INSTANT, category, name, self.now(), 0,
                     vcpu, vmpl, pid, args)

    def _record(self, phase: str, category: str, name: str, ts: int,
                dur: int, vcpu: int, vmpl: int, pid: int, args) -> None:
        self.recorded += 1
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(TraceEvent(
            phase=phase, category=category, name=name, ts=ts, dur=dur,
            vcpu=vcpu, vmpl=vmpl, pid=pid, seq=self.recorded,
            args=_freeze_args(args)))
        key = f"{category}:{name}"
        if phase == PHASE_SPAN:
            self.metrics.count("span", key)
            self.metrics.observe("cycles", key, dur)
        else:
            self.metrics.count("event", key)

    # -- queries ----------------------------------------------------------

    def spans(self, category: str | None = None,
              name: str | None = None) -> list[TraceEvent]:
        """Recorded spans, optionally filtered by category and/or name."""
        return [e for e in self.events if e.phase == PHASE_SPAN and
                (category is None or e.category == category) and
                (name is None or e.name == name)]

    def instants(self, category: str | None = None,
                 name: str | None = None) -> list[TraceEvent]:
        """Recorded instants, optionally filtered."""
        return [e for e in self.events if e.phase == PHASE_INSTANT and
                (category is None or e.category == category) and
                (name is None or e.name == name)]

    def clear(self) -> None:
        """Drop every recorded event and reset the metrics registry."""
        self.events.clear()
        self.dropped = 0
        self.recorded = 0
        self.metrics = MetricsRegistry()


class _NullSpan:
    """Shared no-op context manager (one instance for the whole process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Shared no-op span for hot paths that want to skip even the
#: ``NullTracer.span(...)`` call (argument packing costs show up on the
#: VCPU access path): write
#: ``span = tracer.span(...) if tracer.enabled else NULL_SPAN``.
NULL_SPAN = _NULL_SPAN


class NullTracer:
    """Tracing disabled: every operation is a no-op.

    This is the default tracer on every machine, so instrumented hot
    paths (``VMGEXIT``, syscall dispatch) cost one attribute lookup and
    one trivially-returning call when tracing is off.
    """

    enabled = False
    capacity = 0
    dropped = 0
    recorded = 0
    events: tuple = ()
    metrics = NULL_METRICS

    def attach_ledger(self, ledger) -> None:
        """No-op (tracing disabled)."""

    def now(self) -> int:
        """Always zero (no clock attached)."""
        return 0

    def span(self, *args, **kwargs) -> _NullSpan:
        """The shared no-op context manager."""
        return _NULL_SPAN

    def instant(self, *args, **kwargs) -> None:
        """No-op (tracing disabled)."""

    def spans(self, category=None, name=None) -> list:
        """Always empty."""
        return []

    def instants(self, category=None, name=None) -> list:
        """Always empty."""
        return []

    def clear(self) -> None:
        """No-op (nothing recorded)."""


#: Process-wide shared no-op tracer (stateless, safe across machines).
NULL_TRACER = NullTracer()
