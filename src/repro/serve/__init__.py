"""repro.serve -- deterministic multi-tenant serving for drift-aware pipelines.

The subsystem multiplexes many tenants' drift-aware analytics pipelines
over one simulated inference backend, in virtual time:

- :mod:`repro.serve.arrivals` -- seeded open-loop workload generation
  (Poisson / bursty / diurnal arrival processes) and backend cost maths;
- :mod:`repro.serve.queues` -- bounded per-stream queues with explicit
  backpressure and the load-shedding policies;
- :mod:`repro.serve.session` -- per-tenant state (pipeline, priority,
  deadline budget, guard, circuit breaker) and the session registry;
- :mod:`repro.serve.sharded` -- :class:`ShardedRegistry`, the registry
  facade that partitions thousands of sessions into deterministic
  CRC32-placed shards while preserving global registration order;
- :mod:`repro.serve.scheduler` -- deadline-aware (EDF + priority +
  aging) cross-stream micro-batch formation with weighted max-min
  fairness caps;
- :mod:`repro.serve.overload` -- the NORMAL -> DEGRADED -> SHEDDING
  overload controller (hysteresis state machine over serving pressure);
- :mod:`repro.serve.server` -- the discrete-event serving loop;
- :mod:`repro.serve.report` -- SLO accounting and the
  ``BENCH_serve.json`` contract (:data:`SERVE_REPORT`).

Everything is a pure function of ``(sessions, arrivals, config)``; the
unconstrained single-stream serve path is bit-identical to
:meth:`repro.core.pipeline.DriftAwareAnalytics.process_batched`.
"""

from repro.serve.arrivals import (
    ARRIVAL_PATTERNS,
    DEGRADED_FRAME_OPS,
    MONITOR_FRAME_OPS,
    FrameArrival,
    WorkloadConfig,
    capacity_fps,
    frame_cost_ms,
    generate_arrivals,
)
from repro.serve.queues import (
    SHED_POLICIES,
    BoundedFrameQueue,
    QueueVerdict,
)
from repro.serve.overload import (
    OVERLOAD_STATES,
    OverloadConfig,
    OverloadController,
)
from repro.serve.report import (
    SERVE_REPORT,
    SERVE_SCHEMA,
    ServeResult,
    StreamSLO,
)
from repro.serve.scheduler import (
    FAIRNESS_POLICIES,
    DeadlineScheduler,
    SchedulerConfig,
)
from repro.serve.server import DriftServer, ServeConfig
from repro.serve.sharded import ShardedRegistry
from repro.serve.session import (
    SessionConfig,
    SessionRegistry,
    SessionStats,
    StreamSession,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "DEGRADED_FRAME_OPS",
    "FAIRNESS_POLICIES",
    "MONITOR_FRAME_OPS",
    "OVERLOAD_STATES",
    "SHED_POLICIES",
    "SERVE_REPORT",
    "SERVE_SCHEMA",
    "BoundedFrameQueue",
    "DeadlineScheduler",
    "DriftServer",
    "FrameArrival",
    "OverloadConfig",
    "OverloadController",
    "QueueVerdict",
    "SchedulerConfig",
    "ServeConfig",
    "ServeResult",
    "SessionConfig",
    "ShardedRegistry",
    "SessionRegistry",
    "SessionStats",
    "StreamSLO",
    "StreamSession",
    "WorkloadConfig",
    "capacity_fps",
    "frame_cost_ms",
    "generate_arrivals",
]
