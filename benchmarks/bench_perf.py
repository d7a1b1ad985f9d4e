"""Performance harness for the pipeline's execution modes.

Measures end-to-end frames/sec for the three ways to run a camera fleet --
sequential (:meth:`~repro.core.pipeline.DriftAwareAnalytics.process` per
stream), batched (:meth:`process_batched`) and sharded
(:class:`~repro.parallel.FleetExecutor` across worker processes) -- plus
per-stage microbenchmarks (encode / p-value / martingale / selection)
comparing each stage's scalar loop against its vectorized counterpart.

The workload is the synthetic gaussian fleet used across the test suite:
``--streams`` null streams of ``DIM``-dimensional frames monitored against
a ``REFERENCE_SIZE``-point reference bag, so throughput reflects the
monitor path's per-frame cost rather than drift-resolution work (batched
and sequential resolve drifts identically by construction; the equivalence
suite proves it bit for bit, and this harness re-asserts it on the
records it produces).

On top of the mode measurements, the harness runs the **fleet scaling
sweep**: 1/2/4/8 workers over populations of 100 and 1000 streams with
heterogeneous lengths, planned by the deterministic shard planner
(:func:`repro.parallel.plan_shards`).  Each sweep point reports the
plan's virtual-time numbers (critical path, balance, steal count) and
``speedup_vs_sequential`` -- the batched-mode measured speedup composed
with the plan's parallelism (total frames over the critical path).  The
plan half of that product is bit-reproducible on any machine; where the
sweep also executes the fleet it records the wall-clock ``elapsed_s`` /
``fps`` as optional extra fields (this host serialises workers onto its
cores, so measured wall-clock is the honest-but-host-specific number
and the plan-derived speedup is the portable one).

The findings are written as ``BENCH_pipeline.json`` at the repo root,
validated against :data:`repro.parallel.BENCH_SCHEMA` (v2) before
writing.  Run via ``scripts/bench.sh`` (or directly); ``--quick``
shrinks the stream length and the sweep for a CI smoke pass and is
flagged in the report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

from repro.core.betting import LogScore, PowerBetting
from repro.core.drift_inspector import DriftInspectorConfig
from repro.core.martingale import AdditiveMartingale
from repro.core.nonconformity import KNNDistance
from repro.core.pipeline import DriftAwareAnalytics, PipelineConfig
from repro.core.pvalues import PValueCalculator
from repro.core.selection.msbi import MSBI, MSBIConfig
from repro.core.selection.registry import ModelBundle, ModelRegistry
from repro.nn.vae import VAE, VAEConfig
from repro.parallel import (
    BENCH_REPORT,
    BENCH_SCHEMA_VERSION,
    FleetExecutor,
    FleetTask,
    plan_shards,
    stream_seed,
)

DIM = 8
REFERENCE_SIZE = 100
BASE_SEED = 0
#: Worker counts the scaling sweep plans (and, where cheap, executes).
SWEEP_WORKERS = (1, 2, 4, 8)
#: Stream-population sizes for the sweep (quick mode keeps the first).
SWEEP_STREAMS = (100, 1000)
#: Sweep points at or below this many streams also execute the fleet
#: for a wall-clock measurement; larger points are plan-only.
SWEEP_MEASURE_LIMIT = 100
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")


class ConstantModel:
    """Fixed-class classifier: keeps inference cost out of the numbers."""

    def __init__(self, label: int):
        self.label = label

    def predict(self, frames):
        return np.full(np.asarray(frames).shape[0], self.label,
                       dtype=np.int64)


def make_registry() -> ModelRegistry:
    rng = np.random.default_rng(777)

    def bundle(name: str, centre: float, label: int) -> ModelBundle:
        sigma = rng.normal(centre, 1.0, size=(REFERENCE_SIZE, DIM))
        scores = KNNDistance(5).reference_scores(sigma)
        return ModelBundle(name=name, sigma=sigma, reference_scores=scores,
                           model=ConstantModel(label))

    return ModelRegistry([bundle("low", 0.0, 0), bundle("high", 6.0, 1)])


def make_pipeline(task: FleetTask, seed: int) -> DriftAwareAnalytics:
    """The fleet factory: one pipeline per stream, seeded per shard."""
    registry = make_registry()
    config = PipelineConfig(
        selection_window=8,
        drift_inspector=DriftInspectorConfig(seed=seed))
    selector = MSBI(registry, MSBIConfig(window_size=8, seed=seed))
    return DriftAwareAnalytics(registry, "low", selector, config=config)


def make_tasks(streams: int, frames_per_stream: int) -> list:
    tasks = []
    for index in range(streams):
        rng = np.random.default_rng(1000 + index)
        frames = rng.normal(0.0, 1.0, size=(frames_per_stream, DIM))
        tasks.append(FleetTask(stream_id=f"cam-{index:02d}", frames=frames))
    return tasks


def _best_of(fn, reps: int = 3) -> float:
    """Wall-clock of the fastest of ``reps`` runs of ``fn()``."""
    elapsed = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


# ----------------------------------------------------------------------
# execution modes
# ----------------------------------------------------------------------
def _run_sequential(tasks) -> dict:
    results = {}

    def run():
        results.clear()
        for task in tasks:
            pipeline = make_pipeline(task, stream_seed(BASE_SEED,
                                                       task.stream_id))
            results[task.stream_id] = pipeline.process(task.frames)

    elapsed = _best_of(run)
    return {"results": results, "elapsed_s": elapsed}


def _run_batched(tasks, batch_size: int) -> dict:
    results = {}

    def run():
        results.clear()
        for task in tasks:
            pipeline = make_pipeline(task, stream_seed(BASE_SEED,
                                                       task.stream_id))
            results[task.stream_id] = pipeline.process_batched(
                task.frames, batch_size=batch_size)

    elapsed = _best_of(run)
    return {"results": results, "elapsed_s": elapsed}


def _run_fleet(tasks, workers: int, batch_size: int) -> dict:
    executor = FleetExecutor(make_pipeline, workers=workers,
                             batch_size=batch_size, base_seed=BASE_SEED)
    results = {}

    def run():
        results.clear()
        for entry in executor.run(tasks):
            results[entry.stream_id] = entry.result

    elapsed = _best_of(run)
    return {"results": results, "elapsed_s": elapsed}


def _record_keys(result) -> list:
    return [(r.frame_index, r.prediction, r.model) for r in result.records]


def _mode_entry(frames: int, elapsed_s: float, baseline_s: float = None,
                **extra) -> dict:
    entry = {"frames": frames, "elapsed_s": round(elapsed_s, 6),
             "fps": round(frames / elapsed_s, 2)}
    if baseline_s is not None:
        entry["speedup_vs_sequential"] = round(baseline_s / elapsed_s, 3)
    entry.update(extra)
    return entry


# ----------------------------------------------------------------------
# stage microbenchmarks
# ----------------------------------------------------------------------
def _stage_entry(seq_s: float, bat_s: float, frames: int) -> dict:
    return {
        "sequential_us_per_frame": round(seq_s / frames * 1e6, 3),
        "batched_us_per_frame": round(bat_s / frames * 1e6, 3),
        "speedup": round(seq_s / bat_s, 3),
    }


def bench_encode(quick: bool) -> dict:
    """Dense VAE embedding: per-frame sample_embed vs one batched call
    (bit-identical, since inference is batch-invariant)."""
    n = 128 if quick else 512
    rng = np.random.default_rng(42)
    vae = VAE(VAEConfig(input_shape=(1, 16, 16), latent_dim=DIM,
                        architecture="dense", hidden=64, epochs=1, seed=7))
    vae.fit(rng.uniform(0.0, 1.0, size=(64, 1, 16, 16)))
    frames = rng.uniform(0.0, 1.0, size=(n, 1, 16, 16))

    def seq_run():
        seq_rng = np.random.default_rng(11)
        for i in range(n):
            vae.sample_embed(frames[i:i + 1], rng=seq_rng)

    seq_s = _best_of(seq_run)
    bat_s = _best_of(lambda: vae.sample_embed(
        frames, rng=np.random.default_rng(11)))
    return _stage_entry(seq_s, bat_s, n)


def bench_pvalue(quick: bool) -> dict:
    """Smoothed conformal p-values: scalar calls vs one batch call."""
    n = 2000 if quick else 20000
    rng = np.random.default_rng(43)
    reference = rng.normal(1.0, 0.2, size=REFERENCE_SIZE)
    scores = rng.normal(1.0, 0.2, size=n)
    seq_calc = PValueCalculator(reference, seed=5)
    bat_calc = PValueCalculator(reference, seed=5)
    seq_s = _best_of(lambda: [seq_calc(s) for s in scores])
    bat_s = _best_of(lambda: bat_calc.batch(scores))
    return _stage_entry(seq_s, bat_s, n)


def bench_martingale(quick: bool) -> dict:
    """Additive CUSUM martingale: update loop vs update_batch."""
    n = 2000 if quick else 20000
    rng = np.random.default_rng(44)
    ps = rng.uniform(0.0, 1.0, size=n)

    def make():
        return AdditiveMartingale(LogScore(PowerBetting(0.1)), window=3)

    def seq_run():
        martingale = make()
        for p in ps:
            martingale.update(p)

    seq_s = _best_of(seq_run)
    bat_s = _best_of(lambda: make().update_batch(ps))
    return _stage_entry(seq_s, bat_s, n)


def bench_selection(quick: bool) -> dict:
    """MSBI window testing: per-frame observe loop vs observe_batch."""
    window = 32 if quick else 64
    reps = 5
    rng = np.random.default_rng(45)
    frames = rng.normal(0.0, 1.0, size=(window, DIM))
    registry = make_registry()

    def run(batched: bool):
        selector = MSBI(registry, MSBIConfig(
            window_size=window, seed=0, batched_testing=batched))
        for _ in range(reps):
            selector.select(frames)

    seq_s = _best_of(lambda: run(False))
    bat_s = _best_of(lambda: run(True))
    return _stage_entry(seq_s, bat_s, window * reps * len(registry))


# ----------------------------------------------------------------------
# fleet scaling sweep
# ----------------------------------------------------------------------
def sweep_loads(streams: int) -> list:
    """Heterogeneous per-stream frame counts (40..160) for a sweep
    population -- seeded by the population size, so every run of the
    harness plans exactly the same fleet."""
    rng = np.random.default_rng(BASE_SEED * 100003 + streams)
    return [int(n) for n in rng.integers(40, 161, size=streams)]


def sweep_tasks(streams: int) -> list:
    loads = sweep_loads(streams)
    tasks = []
    for index, length in enumerate(loads):
        rng = np.random.default_rng(5000 + index)
        frames = rng.normal(0.0, 1.0, size=(length, DIM))
        tasks.append(FleetTask(stream_id=f"sweep-{index:04d}",
                               frames=frames))
    return tasks


def run_scaling_sweep(batched_speedup: float, batch_size: int,
                      quick: bool) -> list:
    """One scaling entry per (workers, streams) point.

    ``speedup_vs_sequential`` composes the measured batched speedup with
    the shard plan's virtual-time parallelism (``total / critical``):
    the throughput a fleet of genuinely parallel workers achieves over
    one sequential process.  The plan factor is a pure function of the
    seeded loads, so the committed numbers reproduce bit-for-bit on any
    machine; wall-clock execution (done for the small population in full
    runs) lands in the optional ``elapsed_s`` / ``fps`` fields.
    """
    stream_counts = SWEEP_STREAMS[:1] if quick else SWEEP_STREAMS
    entries = []
    for streams in stream_counts:
        loads = sweep_loads(streams)
        total = sum(loads)
        measure = not quick and streams <= SWEEP_MEASURE_LIMIT
        tasks = sweep_tasks(streams) if measure else None
        for workers in SWEEP_WORKERS:
            plan = plan_shards(loads, workers, seed=BASE_SEED)
            entry = {
                "workers": workers,
                "streams": streams,
                "frames": total,
                "speedup_vs_sequential": round(
                    batched_speedup * plan.speedup(), 3),
                "critical_path_frames": plan.critical_path,
                "balance": round(plan.balance, 4),
                "steals": len(plan.steals),
            }
            if measure:
                executor = FleetExecutor(make_pipeline, workers=workers,
                                         batch_size=batch_size,
                                         base_seed=BASE_SEED)
                start = time.perf_counter()
                executor.run(tasks)
                elapsed = time.perf_counter() - start
                entry["elapsed_s"] = round(elapsed, 6)
                entry["fps"] = round(total / elapsed, 2)
            entries.append(entry)
    return entries


# ----------------------------------------------------------------------
def run_benchmark(streams: int = 4, frames_per_stream: int = 4500,
                  batch_size: int = 256, workers: int = 4,
                  quick: bool = False) -> dict:
    """Run all modes and stages; returns a BENCH_SCHEMA-valid report."""
    if quick:
        frames_per_stream = min(frames_per_stream, 600)
    tasks = make_tasks(streams, frames_per_stream)
    total = streams * frames_per_stream

    sequential = _run_sequential(tasks)
    batched = _run_batched(tasks, batch_size)
    fleet = _run_fleet(tasks, workers, batch_size)

    # the three modes must agree frame for frame; a mismatch means the
    # batched or sharded path broke equivalence, so fail loudly
    for task in tasks:
        expected = _record_keys(sequential["results"][task.stream_id])
        for name, mode in (("batched", batched), ("fleet", fleet)):
            got = _record_keys(mode["results"][task.stream_id])
            if got != expected:
                raise AssertionError(
                    f"{name} records diverged from sequential on "
                    f"{task.stream_id}")

    baseline = sequential["elapsed_s"]
    batched_speedup = round(baseline / batched["elapsed_s"], 3)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "drift-aware pipeline: sequential vs batched vs fleet",
        "quick": quick,
        "config": {
            "streams": streams,
            "frames_per_stream": frames_per_stream,
            "frame_shape": [DIM],
            "batch_size": batch_size,
            "workers": workers,
            "reference_size": REFERENCE_SIZE,
            "latent_dim": DIM,
            "transport": "shm",
            "host_cores": os.cpu_count() or 1,
        },
        "modes": {
            "sequential": _mode_entry(total, baseline),
            "batched": _mode_entry(total, batched["elapsed_s"], baseline,
                                   batch_size=batch_size),
            "fleet": _mode_entry(total, fleet["elapsed_s"], baseline,
                                 workers=workers, batch_size=batch_size,
                                 transport="shm"),
        },
        "stages": {
            "encode": bench_encode(quick),
            "pvalue": bench_pvalue(quick),
            "martingale": bench_martingale(quick),
            "selection": bench_selection(quick),
        },
        "scaling": run_scaling_sweep(batched_speedup, batch_size, quick),
    }


def _print_report(report: dict) -> None:
    config = report["config"]
    print(f"fleet: {config['streams']} streams x "
          f"{config['frames_per_stream']} frames "
          f"(dim {config['latent_dim']}, reference {config['reference_size']},"
          f" batch {config['batch_size']}, workers {config['workers']})")
    print(f"{'mode':<12} {'frames':>8} {'elapsed_s':>10} {'fps':>10} "
          f"{'speedup':>8}")
    for name in ("sequential", "batched", "fleet"):
        entry = report["modes"][name]
        speedup = entry.get("speedup_vs_sequential", 1.0)
        print(f"{name:<12} {entry['frames']:>8} {entry['elapsed_s']:>10.3f} "
              f"{entry['fps']:>10.0f} {speedup:>7.2f}x")
    print()
    print(f"{'stage':<12} {'seq us/frame':>13} {'bat us/frame':>13} "
          f"{'speedup':>8}")
    for name in ("encode", "pvalue", "martingale", "selection"):
        entry = report["stages"][name]
        print(f"{name:<12} {entry['sequential_us_per_frame']:>13.2f} "
              f"{entry['batched_us_per_frame']:>13.2f} "
              f"{entry['speedup']:>7.2f}x")
    print()
    print(f"{'workers':>7} {'streams':>8} {'frames':>8} {'critical':>9} "
          f"{'balance':>8} {'steals':>7} {'speedup':>8}")
    for entry in report["scaling"]:
        print(f"{entry['workers']:>7} {entry['streams']:>8} "
              f"{entry['frames']:>8} {entry['critical_path_frames']:>9} "
              f"{entry['balance']:>8.3f} {entry['steals']:>7} "
              f"{entry['speedup_vs_sequential']:>7.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short streams for a CI smoke pass")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--frames", type=int, default=4500,
                        help="frames per stream (capped at 600 with --quick)")
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    report = run_benchmark(streams=args.streams,
                           frames_per_stream=args.frames,
                           batch_size=args.batch_size,
                           workers=args.workers, quick=args.quick)
    _print_report(report)
    BENCH_REPORT.write(args.output, report)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
