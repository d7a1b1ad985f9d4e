"""Golden SLO snapshot: a fixed-seed 2x-overload serving run.

The snapshot is a full ``SERVE_SCHEMA`` document (the same shape
``benchmarks/bench_serve.py`` emits), so it doubles as a pinned example
of the contract: ``scripts/check.sh`` re-validates the committed file
against the schema on every run.  Every number in it is simulated, so
the snapshot is bit-stable across machines; regenerate with
``pytest --update-golden`` only after an intentional behaviour change.
"""

from __future__ import annotations

from repro.serve import (
    SERVE_REPORT,
    DriftServer,
    SchedulerConfig,
    ServeConfig,
    SessionConfig,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.testing import make_pipeline
from tests.serve.conftest import gaussian_stream

SEED = 20250807
FRAMES_PER_STREAM = 90
OFFERED_LOAD = 2.0
DEADLINE_MS = 60.0
QUEUE_CAPACITY = 8
BATCH_SIZE = 16


def overload_document():
    capacity = capacity_fps()
    per_stream = OFFERED_LOAD * capacity / 3.0
    specs = [("premium", 1, "drop-oldest", False),
             ("standard", 0, "drop-oldest", True),
             ("basic", 0, "degrade", True)]
    sessions, arrivals = [], []
    for i, (stream_id, priority, policy, degradable) in enumerate(specs):
        sessions.append(StreamSession(
            stream_id, make_pipeline(seed=SEED + i),
            SessionConfig(priority=priority, deadline_ms=DEADLINE_MS,
                          queue_capacity=QUEUE_CAPACITY,
                          shed_policy=policy,
                          degraded_allowed=degradable,
                          weight=2.0 if priority else 1.0)))
        frames = gaussian_stream(
            SEED + i, [(0.0, FRAMES_PER_STREAM // 2),
                       (6.0, FRAMES_PER_STREAM - FRAMES_PER_STREAM // 2)])
        arrivals.extend(generate_arrivals(
            frames, WorkloadConfig(rate_fps=per_stream, pattern="burst"),
            stream_id=stream_id, deadline_ms=DEADLINE_MS, seed=SEED + i))
    server = DriftServer(sessions, ServeConfig(
        scheduler=SchedulerConfig(batch_size=BATCH_SIZE)))
    result = server.run(arrivals)
    return {
        "schema_version": 2,
        "benchmark": "serve_slo_golden",
        "quick": True,
        "config": {"streams": 3,
                   "frames_per_stream": FRAMES_PER_STREAM,
                   "batch_size": BATCH_SIZE,
                   "queue_capacity": QUEUE_CAPACITY,
                   "deadline_ms": DEADLINE_MS,
                   "shed_policy": "mixed",
                   "pattern": "burst",
                   "seed": SEED},
        "capacity_fps": round(result.capacity_fps, 6),
        "frame_cost_ms": round(result.frame_cost_ms, 6),
        "degraded_cost_ms": round(result.degraded_cost_ms, 6),
        "sweep": [result.slo_entry(OFFERED_LOAD, OFFERED_LOAD * capacity)],
    }


def test_overload_slo_snapshot(golden):
    document = overload_document()
    SERVE_REPORT.validate(document)
    totals = document["sweep"][0]["totals"]
    # sanity before pinning: the run genuinely overloads, the controller
    # reacts, and the excess degrades gracefully rather than collapsing
    assert totals["degraded"] > 0
    assert totals["rejected_infeasible"] > 0
    assert totals["overload_transitions"] > 0
    assert totals["processed"] > 0
    golden("serve_slo", document)
