#!/usr/bin/env bash
# Repo health check: byte-compile the library, run the tier-1 suite (with
# slowest-test timings), the chaos/fault suite, the e2e benchmark harness's
# own tests, an optional coverage floor, an examples smoke pass, and
# benchmark/schema smoke passes.  Run from the repo root:
#   bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== compileall =="
python -m compileall -q src

echo "== import layering =="
python scripts/check_layers.py

echo "== tier-1 tests =="
python -m pytest -x -q --durations=10

echo "== chaos suite =="
python -m pytest -x -q tests/faults

echo "== e2e benchmark harness =="
# a smoke run of every wall-clock workload through the streaming API, with
# the outside-in tracer wrapping each method its SITES table names: fails
# when a src change renames a traced method or breaks the workloads
python -m pytest -q benchmarks/e2e

echo "== coverage floor (repro.core + repro.parallel + repro.serve) =="
if python -c "import coverage" >/dev/null 2>&1; then
    python -m coverage run --branch \
        --include="src/repro/core/*,src/repro/parallel/*,src/repro/serve/*" \
        -m pytest -q tests
    python -m coverage report --fail-under=85
else
    echo "coverage package not installed; skipping the 85% floor"
fi

echo "== telemetry schema =="
# the committed golden snapshot must satisfy the telemetry contract ...
python - <<'PY'
from repro.obs import TELEMETRY_SUMMARY
summary = TELEMETRY_SUMMARY.load("tests/golden/pipeline_telemetry.json")
events = summary["events"]
print(f"golden telemetry valid ({events['logical']} logical / "
      f"{events['timing']} timing events)")
PY
# ... and a live instrumented run must still emit a valid summary
python - <<'PY'
from repro.obs import TELEMETRY_SUMMARY, Recorder
from repro.testing import gaussian_stream, make_pipeline

pipeline = make_pipeline(seed=0, recorder=Recorder())
result = pipeline.process(gaussian_stream(31, [(0.0, 60), (6.0, 60)]))
TELEMETRY_SUMMARY.validate(result.telemetry["summary"])
print("live telemetry summary OK")
PY

echo "== serve schema =="
# both committed serving documents must satisfy the SERVE_SCHEMA contract
python - <<'PY'
from repro.serve import SERVE_REPORT
golden = SERVE_REPORT.load("tests/golden/serve_slo.json")
report = SERVE_REPORT.load("BENCH_serve.json")
overload = report["sweep"][-1]["totals"]
print(f"serve reports valid (golden + BENCH_serve.json: "
      f"{overload['throughput_fps']:.1f} fps at "
      f"{report['sweep'][-1]['offered_load']}x offered load, "
      f"capacity {report['capacity_fps']:.1f} fps)")
PY

echo "== detectors smoke =="
# the committed detector accuracy report must satisfy DETECTORS_SCHEMA and
# actually score the zoo: >= 6 detectors, each carrying the three accuracy
# metrics for every scenario of the matrix
python - <<'PY'
from repro.detectors.report import DETECTORS_REPORT

report = DETECTORS_REPORT.load("BENCH_detectors.json")
detectors = report["detectors"]
scenarios = set(report["scenarios"])
assert len(detectors) >= 6, (
    f"BENCH_detectors.json scores only {len(detectors)} detectors; "
    f"the contract requires at least 6")
for name, entry in detectors.items():
    assert set(entry["scenarios"]) == scenarios, (
        f"{name} is missing scenarios: "
        f"{scenarios - set(entry['scenarios'])}")
    for scenario, cell in entry["scenarios"].items():
        for metric in ("detection_delay", "false_alarms", "mtbfa"):
            assert metric in cell, f"{name}/{scenario} lacks {metric}"
# the catch-every-drift bar is scoped to the paper's core drifting
# scenarios: the operational matrix deliberately includes adversaries
# (adversarial_slow creeps below detector thresholds by design)
core_drifting = {"abrupt", "subtle", "gradual", "slow"} & scenarios
assert len(core_drifting) == 4, f"core matrix incomplete: {core_drifting}"
caught = sum(
    1 for entry in detectors.values()
    if all(entry["scenarios"][s]["detected_runs"] > 0
           for s in core_drifting))
assert caught >= 6, (
    f"only {caught} detectors catch every core drifting scenario")
# the operational matrix must ship >= 4 scripted scenarios beyond the
# core five, each labelled with its drifted factors and drift kind ...
core = {"abrupt", "subtle", "gradual", "slow", "stationary"}
operational = {s: spec for s, spec in report["scenarios"].items()
               if s not in core}
assert len(operational) >= 4, (
    f"only {len(operational)} operational scenarios; contract needs >= 4")
for name, spec in operational.items():
    assert spec.get("factors") and spec.get("kind"), (
        f"operational scenario {name} lacks factor/kind labels")
# ... and detections over them must carry per-factor attribution
attributed = {
    scenario
    for entry in detectors.values()
    for scenario, cell in entry["scenarios"].items()
    if scenario in operational and "attribution" in cell}
assert attributed == set(operational), (
    f"operational scenarios without attribution: "
    f"{set(operational) - attributed}")
print(f"BENCH_detectors.json valid ({len(detectors)} detectors x "
      f"{len(scenarios)} scenarios, {caught} catch every core drift, "
      f"{len(operational)} operational scenarios attributed)")
PY
echo "== scenarios smoke =="
# every built-in drift script must compile to all three backends and its
# ground-truth document must satisfy SCENARIO_SCHEMA
python - <<'PY'
from repro.scenarios import (
    SCENARIO_DOCUMENT, WorkloadCoupling, builtin_scripts, compile_features,
    compile_video, compile_workload, get_script, script_document)

for name in sorted(builtin_scripts()):
    script = get_script(name)
    features = compile_features(script, seed=0)
    video = compile_video(script, seed=0)
    workload = compile_workload(script, WorkloadCoupling(fps=30.0, surge=2.5))
    assert len(features.frames) == script.frames, name
    assert sum(s.length for s in video.segments) == script.frames, name
    assert workload.pieces[0][0] == 0.0, name
    SCENARIO_DOCUMENT.validate(script_document(script))
print(f"{len(builtin_scripts())} built-in scripts compile to "
      f"feature / pixel / workload backends and validate")
PY
echo "== cascade smoke =="
# the committed cascade frontier must satisfy CASCADE_SCHEMA and its
# headline mode must hold the ISSUE bars against the always-on ceiling
python - <<'PY'
from repro.cascade import CASCADE_REPORT, frontier_summary

report = CASCADE_REPORT.load("BENCH_cascade.json")
assert not report["quick"], "the committed frontier must be the full run"
summary = frontier_summary(report)
cascade = summary[report["default_mode"]]
always = summary["always-on-di"]
assert cascade["stationary_escalated_pct"] <= 20.0, (
    f"stationary escalation {cascade['stationary_escalated_pct']:.1f}% "
    f"blew the 20% budget")
assert cascade["stationary_us_per_frame"] <= \
    always["stationary_us_per_frame"] / 3.0, (
    f"cascade costs {cascade['stationary_us_per_frame']:.0f} us/frame; "
    f"needs >= 3x under always-on DI")
assert cascade["abrupt_detected_runs"] == always["abrupt_detected_runs"]
assert cascade["abrupt_delay"] <= 2.0 * always["abrupt_delay"]
print(f"BENCH_cascade.json valid ({len(summary)} modes; "
      f"{report['default_mode']}: "
      f"{cascade['stationary_us_per_frame']:.0f} us/frame vs always-on "
      f"{always['stationary_us_per_frame']:.0f}, "
      f"{cascade['stationary_escalated_pct']:.1f}% escalated)")
PY
# every example must run end to end in quick mode
for example in examples/*.py; do
    echo "-- $example"
    REPRO_EXAMPLE_QUICK=1 python "$example" > /dev/null \
        || { echo "$example failed"; exit 1; }
done
echo "examples smoke pass OK"

echo "== bench reports =="
# the committed pipeline report must satisfy the schema (v2, with the
# fleet scaling sweep) ...
python - <<'PY'
from repro.parallel import BENCH_REPORT, BENCH_SCHEMA_VERSION
report = BENCH_REPORT.load("BENCH_pipeline.json")
assert report["schema_version"] == BENCH_SCHEMA_VERSION
batched = report["modes"]["batched"]
assert report["scaling"], "committed report must carry the scaling sweep"
print(f"BENCH_pipeline.json valid "
      f"(batched {batched['speedup_vs_sequential']}x sequential, "
      f"{len(report['scaling'])} scaling points)")
PY
# ... and both harnesses must still run end to end and emit valid reports
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
bash scripts/bench.sh --quick --output "$smoke_dir/bench_smoke.json" \
    > "$smoke_dir/bench_smoke.log" \
    || { cat "$smoke_dir/bench_smoke.log"; exit 1; }
python - "$smoke_dir/bench_smoke.json" <<'PY'
import sys
from repro.parallel import BENCH_REPORT
report = BENCH_REPORT.load(sys.argv[1])
assert report["quick"], "smoke pass must be flagged quick"
print("pipeline bench smoke pass OK")
PY
# the serving smoke also asserts goodput holds near capacity at 2x load
bash scripts/bench.sh serve-smoke
# the fleet smoke asserts fleet(4 workers, batched) composes to >= 2.5x
# the single-process batched mode on the smoke workload
bash scripts/bench.sh fleet-smoke
# the cascade smoke re-earns the frontier bars on a fresh quick run
bash scripts/bench.sh cascade-smoke

echo "all checks passed"
