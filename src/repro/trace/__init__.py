"""veil-trace: deterministic cross-layer span tracing for the simulator.

Public surface:

- :class:`Tracer` / :class:`NullTracer` — the recorder and its no-op
  twin; machines default to :data:`NULL_TRACER`.
- :class:`MetricsRegistry` — lossless counters + cycle histograms fed by
  every span close.
- :class:`Tally` — the ``dict`` of counts behind every counter and
  cycle ledger (a missing key reads 0).
- :func:`chrome_trace` / :func:`write_chrome_trace` — Perfetto-loadable
  Chrome trace-event export; :func:`validate_chrome_trace` checks it.
- :func:`render_summary` — text top-N report.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and usage.
"""

from .export import (chrome_trace, dumps_chrome_trace, render_summary,
                     validate_chrome_trace, write_chrome_trace)
from .metrics import (LATENCY_SUB_BITS, NULL_METRICS, CycleHistogram,
                      LatencyHistogram, MetricsRegistry, NullMetrics, Tally)
from .tracer import (DEFAULT_CAPACITY, NULL_SPAN, NULL_TRACER, UNATTRIBUTED,
                     NullTracer, TraceEvent, Tracer)

__all__ = [
    "Tracer", "NullTracer", "TraceEvent", "NULL_SPAN", "NULL_TRACER",
    "UNATTRIBUTED", "DEFAULT_CAPACITY",
    "MetricsRegistry", "CycleHistogram", "LatencyHistogram",
    "LATENCY_SUB_BITS", "NullMetrics", "NULL_METRICS", "Tally",
    "chrome_trace", "dumps_chrome_trace", "write_chrome_trace",
    "validate_chrome_trace", "render_summary",
]
