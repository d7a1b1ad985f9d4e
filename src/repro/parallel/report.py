"""The ``BENCH_pipeline.json`` performance-report schema (v2).

``benchmarks/bench_perf.py`` measures the sequential, batched and fleet
execution modes, runs the fleet scaling sweep (workers x streams over
the deterministic shard planner), and writes its findings as one JSON
document at the repo root.  This module owns the document's schema
(:data:`BENCH_SCHEMA`) and its :class:`~repro.obs.schema.Contract`
(:data:`BENCH_REPORT`), which refuses to write or load a malformed
report.  ``scripts/check.sh`` validates the committed report on every
run, so a schema drift fails CI rather than silently rotting the
benchmark data.

Schema v2 adds the ``scaling`` section: one entry per (workers,
streams) sweep point, carrying the shard plan's deterministic numbers
(``critical_path_frames``, ``balance``, ``steals``) alongside
``speedup_vs_sequential`` -- the fleet x batched speedup the plan
achieves, i.e. the measured batched throughput scaled by the plan's
virtual-time parallelism (total frames over the critical path).  The
plan numbers are bit-reproducible on any machine; the committed
``elapsed_s`` / ``fps`` fields are the build host's wall-clock
measurement of the same point and are optional by contract.  A v1
document (no ``scaling`` section) is rejected.
"""

from __future__ import annotations

from repro.errors import ReportError
from repro.obs.schema import Contract

#: Current report schema version; the only one the contract accepts.
BENCH_SCHEMA_VERSION = 2

_MODE_ENTRY = {
    "type": "object",
    "required": ["frames", "elapsed_s", "fps"],
    "additionalProperties": False,
    "properties": {
        "frames": {"type": "integer", "minimum": 1},
        "elapsed_s": {"type": "number", "exclusiveMinimum": 0},
        "fps": {"type": "number", "exclusiveMinimum": 0},
        "speedup_vs_sequential": {"type": "number", "exclusiveMinimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "transport": {"type": "string", "enum": ["shm", "pipe"]},
    },
}

_STAGE_ENTRY = {
    "type": "object",
    "required": ["sequential_us_per_frame", "batched_us_per_frame", "speedup"],
    "additionalProperties": False,
    "properties": {
        "sequential_us_per_frame": {"type": "number", "exclusiveMinimum": 0},
        "batched_us_per_frame": {"type": "number", "exclusiveMinimum": 0},
        "speedup": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SCALING_ENTRY = {
    "type": "object",
    "required": ["workers", "streams", "frames", "speedup_vs_sequential"],
    "additionalProperties": False,
    "properties": {
        "workers": {"type": "integer", "minimum": 1},
        "streams": {"type": "integer", "minimum": 1},
        "frames": {"type": "integer", "minimum": 1},
        "speedup_vs_sequential": {"type": "number", "exclusiveMinimum": 0},
        "critical_path_frames": {"type": "integer", "minimum": 1},
        "balance": {"type": "number", "exclusiveMinimum": 0},
        "steals": {"type": "integer", "minimum": 0},
        "elapsed_s": {"type": "number", "exclusiveMinimum": 0},
        "fps": {"type": "number", "exclusiveMinimum": 0},
    },
}

BENCH_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro pipeline performance report",
    "type": "object",
    "required": ["schema_version", "benchmark", "quick", "config",
                 "modes", "stages", "scaling"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer",
                           "enum": [BENCH_SCHEMA_VERSION]},
        "benchmark": {"type": "string"},
        "quick": {"type": "boolean"},
        "config": {
            "type": "object",
            "required": ["streams", "frames_per_stream", "frame_shape",
                         "batch_size", "workers", "reference_size",
                         "latent_dim"],
            "additionalProperties": False,
            "properties": {
                "streams": {"type": "integer", "minimum": 1},
                "frames_per_stream": {"type": "integer", "minimum": 1},
                "frame_shape": {"type": "array",
                                "items": {"type": "integer", "minimum": 1}},
                "batch_size": {"type": "integer", "minimum": 1},
                "workers": {"type": "integer", "minimum": 0},
                "reference_size": {"type": "integer", "minimum": 2},
                "latent_dim": {"type": "integer", "minimum": 1},
                "transport": {"type": "string", "enum": ["shm", "pipe"]},
                "host_cores": {"type": "integer", "minimum": 1},
            },
        },
        "modes": {
            "type": "object",
            "required": ["sequential", "batched", "fleet"],
            "additionalProperties": False,
            "properties": {
                "sequential": _MODE_ENTRY,
                "batched": _MODE_ENTRY,
                "fleet": _MODE_ENTRY,
            },
        },
        "stages": {
            "type": "object",
            "required": ["encode", "pvalue", "martingale", "selection"],
            "additionalProperties": False,
            "properties": {
                "encode": _STAGE_ENTRY,
                "pvalue": _STAGE_ENTRY,
                "martingale": _STAGE_ENTRY,
                "selection": _STAGE_ENTRY,
            },
        },
        "scaling": {"type": "array", "items": _SCALING_ENTRY},
    },
}


BENCH_REPORT = Contract(BENCH_SCHEMA, "bench report", ReportError)
