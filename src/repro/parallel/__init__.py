"""Deterministic batched / sharded execution (``repro.parallel``).

The package scales the per-frame algorithms to fleet workloads without
giving up reproducibility:

- :mod:`repro.parallel.transport` -- frame transports between the fleet
  parent and its workers: :class:`FrameRing` (shared-memory slots,
  zero-copy worker views, explicit ownership handoff) and
  :class:`PipeChannel` (the legacy pickled-pipe path, kept as the
  equivalence reference).
- :mod:`repro.parallel.sharding` -- :func:`plan_shards`, load-aware
  stream sharding with deterministic virtual-time work stealing; every
  plan is a pure function of ``(loads, workers, seed)``.
- :mod:`repro.parallel.fleet` -- :class:`FleetExecutor`, which runs many
  camera pipelines across ``multiprocessing`` workers with per-stream seed
  derivation, batched kernels inside each worker, periodic checkpoints,
  crash recovery and a deterministic merge.
- :mod:`repro.parallel.report` -- the ``BENCH_pipeline.json`` schema
  (v2, with the fleet scaling sweep) and its contract
  (:data:`BENCH_REPORT`), shared by the perf harness and the CI smoke
  check.

Determinism contract: a fleet run's merged output is a pure function of
``(tasks, factory, base_seed)`` -- independent of the worker count, the
transport, the shard plan and its steal order, the batch size,
checkpoint cadence, crash/restart timing and OS scheduling.  The
pipeline layer guarantees the per-stream half of this contract
(``process_batched`` is bit-identical to ``process`` for any batch size);
the executor adds per-stream seed isolation and a submission-order merge.
"""

from repro.parallel.fleet import (
    FleetExecutor,
    FleetTask,
    FleetTaskResult,
    SimulatedWorkerCrash,
    fleet_telemetry,
    stream_seed,
    task_load,
)
from repro.parallel.report import (
    BENCH_REPORT,
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
)
from repro.parallel.sharding import ShardPlan, Steal, plan_shards
from repro.parallel.transport import (
    TRANSPORTS,
    BlockMeta,
    FrameRing,
    PipeChannel,
    make_transport,
)

__all__ = [
    "FleetExecutor",
    "FleetTask",
    "FleetTaskResult",
    "SimulatedWorkerCrash",
    "fleet_telemetry",
    "stream_seed",
    "task_load",
    "BENCH_REPORT",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "ShardPlan",
    "Steal",
    "plan_shards",
    "TRANSPORTS",
    "BlockMeta",
    "FrameRing",
    "PipeChannel",
    "make_transport",
]
