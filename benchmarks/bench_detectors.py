"""Accuracy shoot-out for the drift-detector zoo.

Runs every detector registered in :mod:`repro.detectors.zoo` through the
runtime kernel on the extended scenario matrix defined in
:mod:`repro.detectors.bench` -- the core matrix (abrupt, subtle, gradual
and slow distribution shifts plus a stationary specificity control) and
the operational drift scripts (single-factor lighting/geometry drifts,
recurring drift, an adversarially slow ramp, camera displacement with
recalibration, a transient occluder) -- and scores detection delay,
false alarms and mean time between false alarms per cell, averaged over
seeds.  Script-backed cells carry per-factor attribution scores.

The committed ``BENCH_detectors.json`` is the accuracy contract:
``scripts/check.sh detectors-smoke`` re-validates it against
``DETECTORS_SCHEMA`` on every run, so a detector silently losing its
ability to catch the matrix shows up as a diff in review, exactly like a
latency regression in ``BENCH_pipeline.json``.  ``--quick`` halves every
scenario and drops to one seed for a CI smoke pass and is flagged in the
report.  Run via ``scripts/bench.sh detectors``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

from repro.detectors.bench import (
    DEFAULT_SEEDS,
    extended_scenario_matrix,
    run_benchmark,
)
from repro.detectors import zoo
from repro.detectors.report import DETECTORS_REPORT

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(_REPO_ROOT, "BENCH_detectors.json")


def _fmt(value, width: int) -> str:
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width}.1f}"


def _print_report(report: dict) -> None:
    scenarios = list(report["scenarios"])
    seeds = report["scenarios"][scenarios[0]]["seeds"]
    print(f"detector matrix: {len(report['detectors'])} detectors x "
          f"{len(scenarios)} scenarios, {len(seeds)} seed(s) "
          f"(delay frames / false alarms per run)")
    header = f"{'detector':>13}"
    for name in scenarios:
        header += f" {name[:12]:>14}"
    print(header)
    for detector, entry in sorted(report["detectors"].items()):
        row = f"{detector:>13}"
        for name in scenarios:
            cell = entry["scenarios"][name]
            row += (f" {_fmt(cell['detection_delay'], 8)}/"
                    f"{cell['false_alarms']:<5.1f}")
        print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="halved scenarios, one seed: CI smoke pass")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--detectors", default=None,
                        help="comma-separated subset (default: whole zoo)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: "
                             f"{','.join(map(str, DEFAULT_SEEDS))})")
    args = parser.parse_args(argv)

    detectors = (args.detectors.split(",") if args.detectors
                 else zoo.names())
    if args.seeds:
        seeds = tuple(int(seed) for seed in args.seeds.split(","))
    else:
        seeds = (DEFAULT_SEEDS[:1] if args.quick else DEFAULT_SEEDS)

    report = run_benchmark(detectors=detectors,
                           scenarios=extended_scenario_matrix(args.quick),
                           seeds=seeds, quick=args.quick)
    _print_report(report)
    DETECTORS_REPORT.write(args.output, report)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
