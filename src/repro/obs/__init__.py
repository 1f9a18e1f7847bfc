"""Tracing and observability shared by the simulator and the runtime.

The paper's claim is about *scheduling overhead*; proving it on the
live system needs per-phase, per-task attribution, not coarse
aggregates. This package provides:

* :mod:`~repro.obs.trace` — nested :class:`Span` recording over a
  pluggable :class:`TraceSink`: lock-free-per-thread buffers when
  enabled, a shared no-op sink (:data:`NULL_SINK`) when not, and two
  clock domains (wall clock for the runtime, simulation time for the
  engine) so both render in one timeline.
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto) and a flat JSONL log, plus the
  minimal schema validator that
  ``tests/runtime/test_serve_command.py::test_trace_smoke`` runs over a
  traced stream's trace.
* :mod:`~repro.obs.metrics` — a log-linear :class:`Histogram` registry
  with bounded relative quantile error; the runtime's round metrics
  aggregate through it instead of keeping ad-hoc lists.

Instrumented call sites guard per-event work behind ``sink.enabled``,
so a disabled sink costs one attribute read — tracing off is free.
"""

from .export import (
    chrome_trace,
    jsonl_records,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .trace import (
    NULL_SINK,
    PID_REAL,
    PID_SIM,
    NullSink,
    Span,
    SpanRecord,
    TraceRecorder,
    TraceSink,
)

__all__ = [
    "NULL_SINK",
    "PID_REAL",
    "PID_SIM",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullSink",
    "Span",
    "SpanRecord",
    "TraceRecorder",
    "TraceSink",
    "chrome_trace",
    "jsonl_records",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
