"""Load-sweep harness for the multi-tenant serving layer.

Sweeps offered load from half to twice the backend's capacity (derived
from the same :class:`~repro.sim.costs.CostProfile` the simulated clock
charges) and records, per load point, the SLO outcome of serving a small
camera fleet through :class:`~repro.serve.DriftServer`: goodput, shed
and deadline-miss rates, and per-stream latency percentiles.  The point
of the sweep is the *degradation shape*: beyond saturation the overload
controller must hold goodput near capacity by degrading or rejecting the
excess at admission, not let it collapse to late, missed frames.

The fleet is heterogeneous on purpose: odd-indexed streams are premium
tenants (priority 1, double weight, ``degraded_allowed=False`` -- their
infeasible frames are *rejected*, never degraded), even-indexed streams
are standard tenants whose excess rides the cheap degraded pass.

Invariants asserted on every run, mirroring the equivalence check in
``bench_perf.py``:

- beyond saturation (offered load >= 1.0) goodput stays at >= 80% of
  capacity and full-path throughput at >= 70% (the gap is the backend
  time the degraded pass consumes);
- at >= 1.5x load both overload outcomes actually fire: ``degraded > 0``
  and ``rejected_infeasible > 0``;
- an unconstrained stream served through the full admission/scheduling
  machinery is bit-identical to
  :meth:`~repro.core.pipeline.DriftAwareAnalytics.process_batched`.

Every number is simulated, so the committed ``BENCH_serve.json`` is
reproducible bit for bit; ``--quick`` shrinks the stream length for a CI
smoke pass and is flagged in the report.  Run via
``scripts/bench.sh serve``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

from repro.serve import (
    DEGRADED_FRAME_OPS,
    SERVE_REPORT,
    DriftServer,
    SchedulerConfig,
    ServeConfig,
    SessionConfig,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    frame_cost_ms,
    generate_arrivals,
)
from repro.testing import gaussian_stream, make_pipeline, result_sig

BASE_SEED = 424242
BATCH_SIZE = 16
QUEUE_CAPACITY = 8
DEADLINE_MS = 60.0
SHED_POLICY = "drop-oldest"
PATTERN = "poisson"
LOADS = (0.5, 1.0, 1.5, 2.0)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(_REPO_ROOT, "BENCH_serve.json")


def build_fleet(streams: int, frames_per_stream: int, load: float,
                capacity: float):
    """Sessions plus merged arrivals for one offered-load point."""
    per_stream_rate = load * capacity / streams
    sessions, arrivals = [], []
    for index in range(streams):
        stream_id = f"cam-{index:02d}"
        seed = BASE_SEED + index
        premium = bool(index % 2)
        sessions.append(StreamSession(
            stream_id, make_pipeline(seed=seed),
            SessionConfig(priority=int(premium), deadline_ms=DEADLINE_MS,
                          queue_capacity=QUEUE_CAPACITY,
                          shed_policy=SHED_POLICY,
                          weight=2.0 if premium else 1.0,
                          degraded_allowed=not premium)))
        frames = gaussian_stream(
            seed, [(0.0, frames_per_stream // 2),
                   (6.0, frames_per_stream - frames_per_stream // 2)])
        arrivals.extend(generate_arrivals(
            frames,
            WorkloadConfig(rate_fps=per_stream_rate, pattern=PATTERN),
            stream_id=stream_id, deadline_ms=DEADLINE_MS, seed=seed))
    return sessions, arrivals


def run_load_point(streams: int, frames_per_stream: int, load: float,
                   capacity: float) -> dict:
    sessions, arrivals = build_fleet(streams, frames_per_stream, load,
                                     capacity)
    server = DriftServer(sessions, ServeConfig(
        scheduler=SchedulerConfig(batch_size=BATCH_SIZE)))
    result = server.run(arrivals)
    if load >= 1.0:
        # graceful degradation, not collapse: in-deadline completions
        # hold near capacity while the controller diverts the excess
        if result.goodput_fps < 0.8 * capacity:
            raise AssertionError(
                f"goodput collapsed beyond saturation: "
                f"{result.goodput_fps:.1f} fps vs capacity "
                f"{capacity:.1f} fps at offered load {load}")
        if result.throughput_fps < 0.7 * capacity:
            raise AssertionError(
                f"full-path throughput collapsed beyond saturation: "
                f"{result.throughput_fps:.1f} fps vs capacity "
                f"{capacity:.1f} fps at offered load {load}")
    if load >= 1.5:
        if result.degraded == 0:
            raise AssertionError(
                f"degraded path never fired at offered load {load}")
        if result.rejected_infeasible == 0:
            raise AssertionError(
                f"no infeasible arrivals were rejected at offered "
                f"load {load}")
    return result.slo_entry(load, load * capacity)


def assert_serve_equivalence(frames_per_stream: int,
                             capacity: float) -> None:
    """The serve path must not change a single pipeline decision."""
    frames = gaussian_stream(
        BASE_SEED, [(0.0, frames_per_stream // 2),
                    (6.0, frames_per_stream - frames_per_stream // 2)])
    reference = make_pipeline(seed=BASE_SEED).process_batched(
        frames, batch_size=BATCH_SIZE)
    session = StreamSession(
        "cam-00", make_pipeline(seed=BASE_SEED),
        SessionConfig(deadline_ms=1e12, queue_capacity=1 << 20))
    arrivals = generate_arrivals(
        frames, WorkloadConfig(rate_fps=0.5 * capacity),
        stream_id="cam-00", deadline_ms=1e12, seed=BASE_SEED)
    served = DriftServer([session], ServeConfig(
        scheduler=SchedulerConfig(batch_size=BATCH_SIZE))).run(arrivals)
    if result_sig(served.pipeline_results["cam-00"]) != result_sig(
            reference):
        raise AssertionError(
            "unconstrained serve path diverged from process_batched")


def run_benchmark(streams: int = 4, frames_per_stream: int = 600,
                  quick: bool = False) -> dict:
    if quick:
        frames_per_stream = min(frames_per_stream, 160)
    capacity = capacity_fps()
    assert_serve_equivalence(frames_per_stream, capacity)
    sweep = [run_load_point(streams, frames_per_stream, load, capacity)
             for load in LOADS]
    point = run_load_point(streams, frames_per_stream, LOADS[0], capacity)
    if point != sweep[0]:
        raise AssertionError("serving run is not deterministic")
    return {
        "schema_version": 2,
        "benchmark": "multi-tenant serving: offered-load sweep",
        "quick": quick,
        "config": {
            "streams": streams,
            "frames_per_stream": frames_per_stream,
            "batch_size": BATCH_SIZE,
            "queue_capacity": QUEUE_CAPACITY,
            "deadline_ms": DEADLINE_MS,
            "shed_policy": SHED_POLICY,
            "pattern": PATTERN,
            "seed": BASE_SEED,
        },
        "capacity_fps": round(capacity, 6),
        "frame_cost_ms": round(frame_cost_ms(), 6),
        "degraded_cost_ms": round(
            frame_cost_ms(operations=DEGRADED_FRAME_OPS), 6),
        "sweep": sweep,
    }


def _print_report(report: dict) -> None:
    config = report["config"]
    print(f"serving sweep: {config['streams']} streams x "
          f"{config['frames_per_stream']} frames, capacity "
          f"{report['capacity_fps']:.1f} fps "
          f"(queue {config['queue_capacity']}, deadline "
          f"{config['deadline_ms']} ms, policy {config['shed_policy']})")
    print(f"{'load':>5} {'arrivals':>9} {'processed':>10} "
          f"{'degraded':>9} {'rej-inf':>8} {'miss%':>7} {'p99ms':>8} "
          f"{'thru fps':>9} {'good fps':>9}")
    for entry in report["sweep"]:
        totals = entry["totals"]
        print(f"{entry['offered_load']:>5.1f} {totals['arrivals']:>9} "
              f"{totals['processed']:>10} {totals['degraded']:>9} "
              f"{totals['rejected_infeasible']:>8} "
              f"{totals['deadline_miss_rate'] * 100:>6.1f}% "
              f"{totals['p99_latency_ms']:>8.2f} "
              f"{totals['throughput_fps']:>9.1f} "
              f"{totals['goodput_fps']:>9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short streams for a CI smoke pass")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--frames", type=int, default=600,
                        help="frames per stream (capped at 160 with --quick)")
    args = parser.parse_args(argv)

    report = run_benchmark(streams=args.streams,
                           frames_per_stream=args.frames,
                           quick=args.quick)
    _print_report(report)
    SERVE_REPORT.write(args.output, report)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
