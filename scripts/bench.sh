#!/usr/bin/env bash
# Run the benchmark harnesses and refresh the committed reports.
#
#   scripts/bench.sh [perf]  [args...]   pipeline harness -> BENCH_pipeline.json
#   scripts/bench.sh serve   [args...]   serving sweep    -> BENCH_serve.json
#   scripts/bench.sh serve-smoke         quick serving sweep to a temp file,
#                                        asserting goodput holds under overload
#   scripts/bench.sh fleet-smoke         quick pipeline run to a temp file,
#                                        asserting the 4-worker fleet scaling
#                                        point composes to >= 2.5x batched
#   scripts/bench.sh detectors [args...] detector accuracy matrix
#                                        -> BENCH_detectors.json
#   scripts/bench.sh cascade [args...]   tiered-cascade frontier
#                                        -> BENCH_cascade.json
#   scripts/bench.sh cascade-smoke       quick cascade frontier to a temp
#                                        file, asserting the cascade is
#                                        >= 3x cheaper than always-on DI
#                                        within 2x its abrupt delay
#   scripts/bench.sh all     [args...]   perf + serve + detectors + cascade,
#                                        same args to each
#
# With no subcommand (or when the first argument is a flag) the pipeline
# harness runs, so existing `scripts/bench.sh --quick` invocations keep
# working.  Extra arguments are forwarded to the harness (e.g. --quick,
# --output /tmp/report.json).
set -euo pipefail

cd "$(dirname "$0")/.."

subcommand="perf"
case "${1:-}" in
    perf|serve|serve-smoke|fleet-smoke|detectors|cascade|cascade-smoke|all)
        subcommand="$1"
        shift
        ;;
esac

case "$subcommand" in
    perf)
        PYTHONPATH=src python benchmarks/bench_perf.py "$@"
        ;;
    serve)
        PYTHONPATH=src python benchmarks/bench_serve.py "$@"
        ;;
    serve-smoke)
        # quick sweep to a throwaway file, then hold the overload layer to
        # the same bar the committed report meets: at 2x offered load,
        # goodput >= 80% of capacity with both overload outcomes firing
        smoke_dir="$(mktemp -d)"
        trap 'rm -rf "$smoke_dir"' EXIT
        PYTHONPATH=src python benchmarks/bench_serve.py --quick \
            --output "$smoke_dir/serve_smoke.json" > /dev/null
        PYTHONPATH=src python - "$smoke_dir/serve_smoke.json" <<'PY'
import sys
from repro.serve import SERVE_REPORT
report = SERVE_REPORT.load(sys.argv[1])
assert report["quick"], "smoke pass must be flagged quick"
capacity = report["capacity_fps"]
saturated = [e for e in report["sweep"] if e["offered_load"] >= 1.0]
assert saturated, "sweep must cover saturation"
peak = max(saturated, key=lambda e: e["offered_load"])
totals = peak["totals"]
assert peak["offered_load"] >= 2.0, "sweep must reach 2x offered load"
assert totals["goodput_fps"] >= 0.8 * capacity, (
    f"goodput collapsed at {peak['offered_load']}x: "
    f"{totals['goodput_fps']:.1f} fps vs capacity {capacity:.1f} fps")
assert totals["degraded"] > 0, "degraded pass never fired"
assert totals["rejected_infeasible"] > 0, "no infeasible rejections"
print(f"serve smoke OK: goodput {totals['goodput_fps']:.1f} fps at "
      f"{peak['offered_load']}x load (capacity {capacity:.1f} fps, "
      f"{totals['degraded']} degraded, "
      f"{totals['rejected_infeasible']} rejected infeasible)")
PY
        ;;
    fleet-smoke)
        # quick pipeline harness to a throwaway file, then hold the fleet
        # composition to its bar: the 4-worker sweep point must compose
        # batched kernels with the shard plan's parallelism to >= 2.5x the
        # single-process batched mode (the plan factor is deterministic,
        # so this gate never flakes on a loaded or single-core CI host)
        smoke_dir="$(mktemp -d)"
        trap 'rm -rf "$smoke_dir"' EXIT
        PYTHONPATH=src python benchmarks/bench_perf.py --quick \
            --output "$smoke_dir/fleet_smoke.json" > /dev/null
        PYTHONPATH=src python - "$smoke_dir/fleet_smoke.json" <<'PY'
import sys
from repro.parallel import BENCH_REPORT
report = BENCH_REPORT.load(sys.argv[1])
assert report["quick"], "smoke pass must be flagged quick"
batched = report["modes"]["batched"]["speedup_vs_sequential"]
assert batched > 1.0, f"batched kernel lost to sequential: {batched}x"
points = [e for e in report["scaling"] if e["workers"] == 4]
assert points, "scaling sweep is missing the 4-worker point"
point = min(points, key=lambda e: e["streams"])
speedup = point["speedup_vs_sequential"]
assert speedup >= 2.5 * batched, (
    f"fleet(4 workers, batched) composed to {speedup:.2f}x sequential; "
    f"needs >= 2.5x the batched mode's {batched:.2f}x")
print(f"fleet smoke OK: 4 workers x {point['streams']} streams -> "
      f"{speedup:.2f}x sequential ({speedup / batched:.2f}x batched, "
      f"balance {point['balance']:.3f}, {point['steals']} steals)")
PY
        ;;
    detectors)
        PYTHONPATH=src python benchmarks/bench_detectors.py "$@"
        ;;
    cascade)
        PYTHONPATH=src python benchmarks/bench_cascade.py "$@"
        ;;
    cascade-smoke)
        # quick frontier to a throwaway file, then hold the headline
        # cascade mode to the frontier bars: stationary escalation <= 20%
        # at >= 3x lower *modelled* cost (PAPER_COSTS us/frame, not the
        # wall clock) than always-on DI, and abrupt detection delay
        # within 2x of the always-on ceiling
        smoke_dir="$(mktemp -d)"
        trap 'rm -rf "$smoke_dir"' EXIT
        PYTHONPATH=src python benchmarks/bench_cascade.py --quick \
            --output "$smoke_dir/cascade_smoke.json" > /dev/null
        PYTHONPATH=src python - "$smoke_dir/cascade_smoke.json" <<'PY'
import sys
from repro.cascade import CASCADE_REPORT, frontier_summary
report = CASCADE_REPORT.load(sys.argv[1])
assert report["quick"], "smoke pass must be flagged quick"
summary = frontier_summary(report)
cascade = summary[report["default_mode"]]
always = summary["always-on-di"]
assert cascade["stationary_escalated_pct"] <= 20.0, (
    f"stationary escalation {cascade['stationary_escalated_pct']:.1f}% "
    f"blew the 20% budget")
assert cascade["stationary_us_per_frame"] <= \
    always["stationary_us_per_frame"] / 3.0, (
    f"cascade costs {cascade['stationary_us_per_frame']:.0f} modelled "
    f"us/frame; needs >= 3x under always-on DI's "
    f"{always['stationary_us_per_frame']:.0f}")
assert cascade["abrupt_detected_runs"] == always["abrupt_detected_runs"], (
    "cascade missed an abrupt drift the always-on DI caught")
assert cascade["abrupt_delay"] <= 2.0 * always["abrupt_delay"], (
    f"abrupt delay {cascade['abrupt_delay']:.1f} frames; needs <= 2x "
    f"always-on DI's {always['abrupt_delay']:.1f}")
print(f"cascade smoke OK: {report['default_mode']} at "
      f"{cascade['stationary_us_per_frame']:.0f} modelled us/frame "
      f"({cascade['stationary_escalated_pct']:.1f}% escalated, "
      f"abrupt delay {cascade['abrupt_delay']:.1f} vs always-on "
      f"{always['abrupt_delay']:.1f} frames at "
      f"{always['stationary_us_per_frame']:.0f} modelled us/frame)")
PY
        ;;
    all)
        PYTHONPATH=src python benchmarks/bench_perf.py "$@"
        PYTHONPATH=src python benchmarks/bench_serve.py "$@"
        PYTHONPATH=src python benchmarks/bench_detectors.py "$@"
        PYTHONPATH=src python benchmarks/bench_cascade.py "$@"
        ;;
esac
