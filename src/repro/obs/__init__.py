"""Deterministic observability (``repro.obs``).

A metrics registry (counters, gauges, fixed-bucket histograms), a
span-based tracer over an injectable clock, a JSONL event sink, and a
schema-validated end-of-run summary -- designed so that *recording
telemetry can never change a run*:

- the :class:`NullRecorder` (the pipeline default) makes disabled
  observability a handful of no-ops, and an enabled :class:`Recorder` is
  passive -- it reads the simulated clock but never charges it, and never
  touches an RNG stream;
- timestamps come from any object with an ``elapsed_ms`` property
  (:class:`~repro.sim.clock.SimulatedClock` for reproducible traces,
  :class:`WallClock` for real durations);
- events are split into a **logical** stream (drift detections, model
  deployments, guard interventions, retries, breaker transitions) that is
  identical across sequential, batched and fleet execution under one
  seed, and a **timing** stream (spans) that may legitimately differ;
- the recorder can be snapshotted and rolled back in O(aggregates), so
  the pipeline's optimistic batched path rewinds telemetry exactly as it
  rewinds the drift inspector and the clock.
"""

from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    DEFAULT_P_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    LOGICAL,
    NULL_RECORDER,
    TIMING,
    JsonlSink,
    MemorySink,
    NullRecorder,
    Recorder,
    logical_events,
)
from repro.obs.report import (
    TELEMETRY_SCHEMA,
    TELEMETRY_SUMMARY,
    format_summary,
    merge_telemetry,
)
from repro.obs.tracer import Span, Tracer, WallClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_P_BUCKETS",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "JsonlSink",
    "MemorySink",
    "logical_events",
    "LOGICAL",
    "TIMING",
    "Span",
    "Tracer",
    "WallClock",
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SUMMARY",
    "merge_telemetry",
    "format_summary",
]
