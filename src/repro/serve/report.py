"""Serving SLO accounting and the ``BENCH_serve.json`` contract.

:class:`StreamSLO` summarises one tenant's serving outcome (counts,
latency percentiles, deadline misses, drift activity);
:class:`ServeResult` aggregates a whole run and renders the
schema-valid ``sweep`` entry that ``benchmarks/bench_serve.py`` emits per
offered-load point.  :data:`SERVE_SCHEMA` is the document's schema (v2;
a v1 document is rejected) and :data:`SERVE_REPORT` its
:class:`~repro.obs.schema.Contract`, which validates, writes and loads
``BENCH_serve.json``.

Every number in the document is *simulated*: latencies, throughput and
makespan all live in the virtual time the backend clock charges, so the
committed report is reproducible bit for bit on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ReportError
from repro.obs.schema import Contract


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile by the nearest-rank method (deterministic, no
    interpolation); 0.0 for an empty sample."""
    if not 0.0 < q <= 100.0:
        raise ReportError(f"percentile must be in (0, 100]: {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _rate(count: int, denominator: int) -> float:
    return count / denominator if denominator > 0 else 0.0


def _fps(count: int, makespan_ms: float) -> float:
    return count / (makespan_ms / 1000.0) if makespan_ms > 0 else 0.0


@dataclass
class StreamSLO:
    """One tenant's serving outcome."""

    stream_id: str
    priority: int
    shed_policy: str
    arrivals: int
    admitted: int
    processed: int
    degraded: int
    rejected: int
    rejected_infeasible: int
    deadline_misses: int
    shed: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    detections: int = 0
    deployed_model: str = ""

    @classmethod
    def from_session(cls, session) -> "StreamSLO":
        """Summarise a finished :class:`~repro.serve.session.StreamSession`
        (its pipeline must already be flushed)."""
        stats = session.stats
        return cls(
            stream_id=session.stream_id,
            priority=session.config.priority,
            shed_policy=session.config.shed_policy,
            arrivals=stats.arrivals,
            admitted=stats.admitted,
            processed=stats.processed,
            degraded=stats.degraded,
            rejected=stats.rejected,
            rejected_infeasible=stats.rejected_infeasible,
            deadline_misses=stats.deadline_misses,
            shed=dict(stats.shed),
            latencies_ms=list(stats.latencies_ms),
            detections=len(session.pipeline.result().detections),
            deployed_model=session.pipeline.deployed_model,
        )

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def served(self) -> int:
        """Frames that completed (full path + degraded pass).

        Every completion is counted exactly once: ``processed`` frames
        finish in :meth:`DriftServer._serve_batch` and ``degraded``
        frames in :meth:`DriftServer._serve_degraded`, the only two
        completion sites -- so ``len(latencies_ms) == served`` holds (a
        unit test pins it against double-counting).
        """
        return self.processed + self.degraded

    def goodput_fps(self, makespan_ms: float) -> float:
        """This tenant's in-deadline completions per simulated second of
        the run's makespan."""
        return _fps(self.served - self.deadline_misses, makespan_ms)

    def as_dict(self, makespan_ms: float = 0.0) -> dict:
        return {
            "priority": self.priority,
            "shed_policy": self.shed_policy,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "processed": self.processed,
            "degraded": self.degraded,
            "shed": dict(sorted(self.shed.items())),
            "rejected": self.rejected,
            "rejected_infeasible": self.rejected_infeasible,
            "goodput_fps": round(self.goodput_fps(makespan_ms), 6),
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": round(
                _rate(self.deadline_misses, self.served), 6),
            "shed_rate": round(_rate(self.shed_total, self.arrivals), 6),
            "p50_latency_ms": round(nearest_rank(self.latencies_ms, 50.0), 6),
            "p99_latency_ms": round(nearest_rank(self.latencies_ms, 99.0), 6),
            "max_latency_ms": round(
                max(self.latencies_ms) if self.latencies_ms else 0.0, 6),
            "detections": self.detections,
            "deployed_model": self.deployed_model,
        }


@dataclass
class ServeResult:
    """Aggregated outcome of one :meth:`DriftServer.run`.

    ``pipeline_results`` carries each stream's full
    :class:`~repro.core.pipeline.PipelineResult` (records, detections,
    fault stats) so serving consumers lose nothing over offline
    processing; the SLO accounting lives in ``streams``.
    """

    streams: Dict[str, StreamSLO]
    pipeline_results: Dict[str, object]
    makespan_ms: float
    capacity_fps: float
    frame_cost_ms: float
    degraded_cost_ms: float
    batch_overhead_ms: float
    backend_ledger: Dict[str, float] = field(default_factory=dict)
    overload_transitions: int = 0

    # ------------------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(slo, attr) for slo in self.streams.values())

    @property
    def arrivals(self) -> int:
        return self._sum("arrivals")

    @property
    def processed(self) -> int:
        return self._sum("processed")

    @property
    def degraded(self) -> int:
        return self._sum("degraded")

    @property
    def served(self) -> int:
        return self._sum("served")

    @property
    def shed_total(self) -> int:
        return self._sum("shed_total")

    @property
    def rejected(self) -> int:
        return self._sum("rejected")

    @property
    def rejected_infeasible(self) -> int:
        return self._sum("rejected_infeasible")

    @property
    def deadline_misses(self) -> int:
        return self._sum("deadline_misses")

    @property
    def throughput_fps(self) -> float:
        """Full-path frames served per simulated second of makespan."""
        return _fps(self.processed, self.makespan_ms)

    @property
    def served_fps(self) -> float:
        return _fps(self.served, self.makespan_ms)

    @property
    def goodput_fps(self) -> float:
        """In-deadline completions per simulated second."""
        return _fps(self.served - self.deadline_misses, self.makespan_ms)

    def latencies_ms(self) -> List[float]:
        merged: List[float] = []
        for slo in self.streams.values():
            merged.extend(slo.latencies_ms)
        return merged

    # ------------------------------------------------------------------
    def slo_entry(self, offered_load: float,
                  arrival_rate_fps: float) -> dict:
        """One schema-valid ``sweep`` entry for this run."""
        latencies = self.latencies_ms()
        totals = {
            "arrivals": self.arrivals,
            "admitted": self._sum("admitted"),
            "processed": self.processed,
            "degraded": self.degraded,
            "shed": self.shed_total,
            "rejected": self.rejected,
            "rejected_infeasible": self.rejected_infeasible,
            "overload_transitions": self.overload_transitions,
            "deadline_misses": self.deadline_misses,
            "throughput_fps": round(self.throughput_fps, 6),
            "served_fps": round(self.served_fps, 6),
            "goodput_fps": round(self.goodput_fps, 6),
            "shed_rate": round(_rate(self.shed_total, self.arrivals), 6),
            "deadline_miss_rate": round(
                _rate(self.deadline_misses, self.served), 6),
            "p50_latency_ms": round(nearest_rank(latencies, 50.0), 6),
            "p99_latency_ms": round(nearest_rank(latencies, 99.0), 6),
            "max_latency_ms": round(
                max(latencies) if latencies else 0.0, 6),
            "makespan_ms": round(self.makespan_ms, 6),
        }
        return {
            "offered_load": offered_load,
            "arrival_rate_fps": round(arrival_rate_fps, 6),
            "totals": totals,
            "streams": {stream_id: slo.as_dict(self.makespan_ms)
                        for stream_id, slo in sorted(self.streams.items())},
        }


# ----------------------------------------------------------------------
# the BENCH_serve.json contract
# ----------------------------------------------------------------------
_STREAM_ENTRY = {
    "type": "object",
    "required": ["priority", "shed_policy", "arrivals", "admitted",
                 "processed", "degraded", "shed", "rejected",
                 "rejected_infeasible", "goodput_fps",
                 "deadline_misses", "deadline_miss_rate", "shed_rate",
                 "p50_latency_ms", "p99_latency_ms", "max_latency_ms",
                 "detections", "deployed_model"],
    "additionalProperties": False,
    "properties": {
        "priority": {"type": "integer"},
        "shed_policy": {"type": "string",
                        "enum": ["drop-oldest", "drop-newest", "degrade"]},
        "arrivals": {"type": "integer", "minimum": 0},
        "admitted": {"type": "integer", "minimum": 0},
        "processed": {"type": "integer", "minimum": 0},
        "degraded": {"type": "integer", "minimum": 0},
        "shed": {"type": "object", "properties": {},
                 "additionalProperties": {"type": "integer", "minimum": 1}},
        "rejected": {"type": "integer", "minimum": 0},
        "rejected_infeasible": {"type": "integer", "minimum": 0},
        "goodput_fps": {"type": "number", "minimum": 0},
        "deadline_misses": {"type": "integer", "minimum": 0},
        "deadline_miss_rate": {"type": "number", "minimum": 0},
        "shed_rate": {"type": "number", "minimum": 0},
        "p50_latency_ms": {"type": "number", "minimum": 0},
        "p99_latency_ms": {"type": "number", "minimum": 0},
        "max_latency_ms": {"type": "number", "minimum": 0},
        "detections": {"type": "integer", "minimum": 0},
        "deployed_model": {"type": "string"},
    },
}

_TOTALS_ENTRY = {
    "type": "object",
    "required": ["arrivals", "admitted", "processed", "degraded", "shed",
                 "rejected", "rejected_infeasible", "overload_transitions",
                 "deadline_misses", "throughput_fps",
                 "served_fps", "goodput_fps", "shed_rate",
                 "deadline_miss_rate", "p50_latency_ms", "p99_latency_ms",
                 "max_latency_ms", "makespan_ms"],
    "additionalProperties": False,
    "properties": {
        "arrivals": {"type": "integer", "minimum": 0},
        "admitted": {"type": "integer", "minimum": 0},
        "processed": {"type": "integer", "minimum": 0},
        "degraded": {"type": "integer", "minimum": 0},
        "shed": {"type": "integer", "minimum": 0},
        "rejected": {"type": "integer", "minimum": 0},
        "rejected_infeasible": {"type": "integer", "minimum": 0},
        "overload_transitions": {"type": "integer", "minimum": 0},
        "deadline_misses": {"type": "integer", "minimum": 0},
        "throughput_fps": {"type": "number", "minimum": 0},
        "served_fps": {"type": "number", "minimum": 0},
        "goodput_fps": {"type": "number", "minimum": 0},
        "shed_rate": {"type": "number", "minimum": 0},
        "deadline_miss_rate": {"type": "number", "minimum": 0},
        "p50_latency_ms": {"type": "number", "minimum": 0},
        "p99_latency_ms": {"type": "number", "minimum": 0},
        "max_latency_ms": {"type": "number", "minimum": 0},
        "makespan_ms": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SWEEP_ENTRY = {
    "type": "object",
    "required": ["offered_load", "arrival_rate_fps", "totals", "streams"],
    "additionalProperties": False,
    "properties": {
        "offered_load": {"type": "number", "exclusiveMinimum": 0},
        "arrival_rate_fps": {"type": "number", "exclusiveMinimum": 0},
        "totals": _TOTALS_ENTRY,
        "streams": {"type": "object", "properties": {},
                    "additionalProperties": _STREAM_ENTRY},
    },
}

SERVE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro serving SLO report (load sweep)",
    "type": "object",
    "required": ["schema_version", "benchmark", "quick", "config",
                 "capacity_fps", "frame_cost_ms", "degraded_cost_ms",
                 "sweep"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [2]},
        "benchmark": {"type": "string"},
        "quick": {"type": "boolean"},
        "config": {
            "type": "object",
            "required": ["streams", "frames_per_stream", "batch_size",
                         "queue_capacity", "deadline_ms", "shed_policy",
                         "pattern", "seed"],
            "additionalProperties": False,
            "properties": {
                "streams": {"type": "integer", "minimum": 1},
                "frames_per_stream": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "queue_capacity": {"type": "integer", "minimum": 1},
                "deadline_ms": {"type": "number", "exclusiveMinimum": 0},
                "shed_policy": {
                    "type": "string",
                    "enum": ["drop-oldest", "drop-newest", "degrade",
                             "mixed"]},
                "pattern": {"type": "string",
                            "enum": ["poisson", "burst", "diurnal",
                                     "mixed"]},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "capacity_fps": {"type": "number", "exclusiveMinimum": 0},
        "frame_cost_ms": {"type": "number", "exclusiveMinimum": 0},
        "degraded_cost_ms": {"type": "number", "minimum": 0},
        "sweep": {"type": "array", "items": _SWEEP_ENTRY},
    },
}


SERVE_REPORT = Contract(SERVE_SCHEMA, "serve report", ReportError)
