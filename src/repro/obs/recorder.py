"""The :class:`Recorder` -- one handle tying metrics, spans and events.

Design constraints (these are the test surface, not aspirations):

- **Passive.**  A recorder never touches RNG streams, never charges the
  simulated clock and never mutates pipeline inputs, so attaching one (or
  not) cannot change a run's output.  The :class:`NullRecorder` makes the
  disabled case a handful of no-op calls.
- **Deterministic.**  Timestamps come from an injectable ``elapsed_ms``
  clock (bind the pipeline's :class:`~repro.sim.clock.SimulatedClock` for
  reproducible traces; an unbound recorder stamps ``0.0``).  Events carry
  a per-category sequence number, so the *logical* event stream -- drift
  detections, deployments, guard interventions, retries, breaker
  transitions -- is identical across sequential, batched and fleet
  execution; only ``timing``-category events (spans) depend on the
  execution strategy.
- **Rollback-aware.**  :meth:`state_dict` / :meth:`load_state_dict`
  capture and restore the whole recorder cheaply (events are append-only,
  so restore truncates), letting the pipeline's optimistic batched path
  roll telemetry back exactly as it rolls back the inspector and clock.

Sinks are drained explicitly: :meth:`flush` appends every not-yet-flushed
event to the attached :class:`JsonlSink` (or any ``write_events``
object).  Draining lazily -- rather than on emission -- is what keeps the
JSONL stream consistent with rollbacks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer

#: Event categories.
LOGICAL = "logical"
TIMING = "timing"

#: Fields that depend on when/how a run executed rather than on what it
#: logically did; stripped by :func:`logical_events` for comparisons.
TIMING_FIELDS = ("ts_ms",)


def logical_events(events_or_snapshot: object,
                   strip: Sequence[str] = TIMING_FIELDS) -> List[dict]:
    """The logical event stream, normalized for cross-mode comparison.

    Accepts a raw event list or a :meth:`Recorder.snapshot` dict; filters
    to ``cat == "logical"`` and drops the fields named by ``strip``
    (timestamps by default -- batched execution admits frames ahead of
    observing them, so simulated timestamps legitimately differ while the
    events themselves must not).
    """
    if isinstance(events_or_snapshot, dict):
        events = events_or_snapshot.get("events", [])
    else:
        events = events_or_snapshot
    return [{key: value for key, value in event.items()
             if key not in strip}
            for event in events if event.get("cat") == LOGICAL]


class JsonlSink:
    """Appends events to a file, one JSON document per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.written = 0

    def write_events(self, events: Iterable[dict]) -> int:
        count = 0
        with open(self.path, "a", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
                count += 1
        self.written += count
        return count


class MemorySink:
    """Collects flushed events in memory (tests, in-process consumers)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def write_events(self, events: Iterable[dict]) -> int:
        batch = list(events)
        self.events.extend(batch)
        return len(batch)


class Recorder:
    """Live telemetry for one run: metrics + tracer + event stream.

    Parameters
    ----------
    clock:
        Any object with an ``elapsed_ms`` property.  ``None`` leaves the
        recorder unbound (timestamps are ``0.0``); the pipeline binds its
        own simulated clock to an unbound recorder on attach.
    sink:
        Optional event sink (``write_events(events)``), drained by
        :meth:`flush`.
    keep_events:
        ``False`` drops events after counting them: aggregates, sequence
        numbers and the summary still advance, but :attr:`events` stays
        empty and a sink receives nothing.  Use for long-running fleets
        where per-event retention is too expensive.
    """

    enabled = True

    def __init__(self, clock: Optional[object] = None,
                 sink: Optional[object] = None,
                 keep_events: bool = True) -> None:
        self.clock = clock
        self.sink = sink
        self.keep_events = keep_events
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock, on_close=self._on_span_close)
        self._events: List[dict] = []
        self._seq: Dict[str, int] = {LOGICAL: 0, TIMING: 0}
        self._by_kind: Dict[str, int] = {}
        self._span_stats: Dict[str, Dict[str, float]] = {}
        self._flushed = 0

    # ------------------------------------------------------------------
    # clock binding
    # ------------------------------------------------------------------
    def bind_clock(self, clock: object) -> None:
        """Attach ``clock`` if the recorder is still unbound (the pipeline
        calls this so ``Recorder()`` just works with simulated time)."""
        if self.clock is None:
            self.clock = clock
            self.tracer.clock = clock

    def _now(self) -> float:
        if self.clock is None:
            return 0.0
        return float(self.clock.elapsed_ms)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, kind: str, cat: str = LOGICAL, **fields: object) -> dict:
        """Record one event; returns the event dict."""
        seq = self._seq[cat]
        self._seq[cat] = seq + 1
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        record = {"seq": seq, "cat": cat, "kind": kind,
                  "ts_ms": self._now(), **fields}
        if self.keep_events:
            self._events.append(record)
        return record

    def _on_span_close(self, span: Span) -> None:
        stats = self._span_stats.get(span.name)
        duration = span.duration_ms
        if stats is None:
            self._span_stats[span.name] = {
                "count": 1, "total_ms": duration, "max_ms": duration}
        else:
            stats["count"] += 1
            stats["total_ms"] += duration
            if duration > stats["max_ms"]:
                stats["max_ms"] = duration
        self.event("span", cat=TIMING, name=span.name,
                   parent=span.parent, depth=span.depth,
                   start_ms=span.start_ms, dur_ms=duration)

    @property
    def events(self) -> List[dict]:
        return self._events

    # ------------------------------------------------------------------
    # instruments (delegate to the registry)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None) -> Histogram:
        return self.metrics.histogram(name, boundaries)

    def span(self, name: str):
        return self.tracer.span(name)

    # ------------------------------------------------------------------
    # rollback support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Cheap restore point (events are append-only: only the length
        is captured; aggregates are copied)."""
        return {"n_events": len(self._events),
                "seq": dict(self._seq),
                "by_kind": dict(self._by_kind),
                "metrics": self.metrics.state_dict(),
                "span_stats": {name: dict(stats)
                               for name, stats in self._span_stats.items()},
                "flushed": self._flushed}

    def load_state_dict(self, state: dict) -> None:
        """Roll back to a :meth:`state_dict` restore point."""
        del self._events[int(state["n_events"]):]
        self._seq = {str(k): int(v) for k, v in state["seq"].items()}
        self._by_kind = {str(k): int(v)
                         for k, v in state["by_kind"].items()}
        self.metrics.load_state_dict(state["metrics"])
        self._span_stats = {
            str(name): {"count": int(stats["count"]),
                        "total_ms": float(stats["total_ms"]),
                        "max_ms": float(stats["max_ms"])}
            for name, stats in state["span_stats"].items()}
        self._flushed = min(int(state["flushed"]), len(self._events))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def flush(self, sink: Optional[object] = None) -> int:
        """Drain not-yet-flushed events to ``sink`` (or the attached one);
        returns how many events were written."""
        target = sink if sink is not None else self.sink
        if target is None:
            return 0
        pending = self._events[self._flushed:]
        if not pending:
            return 0
        written = target.write_events(pending)
        self._flushed = len(self._events)
        return written

    def summary(self) -> dict:
        """The end-of-run aggregate (validated by
        :data:`repro.obs.report.TELEMETRY_SUMMARY`)."""
        snapshot = self.metrics.snapshot()
        return {
            "schema_version": 1,
            "events": {
                "total": self._seq[LOGICAL] + self._seq[TIMING],
                "logical": self._seq[LOGICAL],
                "timing": self._seq[TIMING],
                "by_kind": {name: self._by_kind[name]
                            for name in sorted(self._by_kind)},
            },
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "spans": {name: {"count": int(stats["count"]),
                             "total_ms": stats["total_ms"],
                             "max_ms": stats["max_ms"]}
                      for name, stats in sorted(self._span_stats.items())},
        }

    def snapshot(self) -> dict:
        """Everything a consumer needs, as plain picklable data: the
        summary plus the retained event stream."""
        return {"summary": self.summary(), "events": list(self._events)}


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass


class _NullSpan:
    """Reentrant no-op span context."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullRecorder:
    """The disabled recorder: every call is a no-op.

    The pipeline defaults to a shared :data:`NULL_RECORDER` instance, so
    running without observability costs a few attribute lookups per frame
    and provably cannot alter behaviour (the no-op equivalence property
    test pins this).
    """

    enabled = False

    _instrument = _NullInstrument()
    _span = _NullSpan()

    def bind_clock(self, clock: object) -> None:
        pass

    def event(self, kind: str, cat: str = LOGICAL, **fields: object) -> None:
        return None

    def counter(self, name: str) -> _NullInstrument:
        return self._instrument

    def gauge(self, name: str) -> _NullInstrument:
        return self._instrument

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> _NullInstrument:
        return self._instrument

    def span(self, name: str) -> _NullSpan:
        return self._span

    def state_dict(self) -> None:
        return None

    def load_state_dict(self, state: object) -> None:
        pass

    def flush(self, sink: Optional[object] = None) -> int:
        return 0

    def summary(self) -> None:
        return None

    def snapshot(self) -> None:
        return None


#: Shared disabled recorder (stateless, safe to share across pipelines).
NULL_RECORDER = NullRecorder()
