"""The ``BENCH_cascade.json`` accuracy/cost-frontier contract.

``benchmarks/bench_cascade.py`` scores the tiered cascade against the
always-on Drift Inspector and the tier-0 screen alone across the
detector benchmark's scenario matrix, sweeping the escalation threshold,
and writes one document in this shape through :data:`CASCADE_REPORT`, a
:class:`~repro.obs.schema.Contract` over :data:`CASCADE_SCHEMA` whose
check also requires ``default_mode`` to name a scored mode.  The
document is committed to the repo, so ``scripts/check.sh`` can diff
frontier regressions in review.

Per mode x scenario the report carries the accuracy/cost cell:

``detection_delay`` / ``detected_runs`` / ``false_alarms``
    The detector benchmark's standard accuracy metrics, averaged over
    the scenario's seeds.

``escalated_pct``
    Share of monitor-mode frames the cascade escalated to tier 1
    (``100`` for the always-on mode, ``0`` for the screen alone).

``us_per_frame``
    Simulated cost per monitored frame in microseconds, from the
    :data:`~repro.sim.costs.PAPER_COSTS` profile: the tier-0 screen on
    every frame plus the tier-1 path on the escalated share.
"""

from __future__ import annotations

from repro.errors import ReportError
from repro.obs.schema import Contract

_CELL = {
    "type": "object",
    "required": ["detection_delay", "detected_runs", "runs",
                 "false_alarms", "escalated_pct", "us_per_frame"],
    "additionalProperties": False,
    "properties": {
        "detection_delay": {"type": ["number", "null"], "minimum": 0},
        "detected_runs": {"type": "integer", "minimum": 0},
        "runs": {"type": "integer", "minimum": 1},
        "false_alarms": {"type": "number", "minimum": 0},
        "escalated_pct": {"type": "number", "minimum": 0, "maximum": 100},
        "us_per_frame": {"type": "number", "exclusiveMinimum": 0},
    },
}

_MODE_ENTRY = {
    "type": "object",
    "required": ["kind", "threshold", "scenarios"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string",
                 "enum": ["cascade", "always-on", "tier0"]},
        "threshold": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "scenarios": {"type": "object", "properties": {},
                      "additionalProperties": _CELL},
    },
}

_SCENARIO_ENTRY = {
    "type": "object",
    "required": ["frames", "onset", "seeds"],
    "additionalProperties": False,
    "properties": {
        "frames": {"type": "integer", "minimum": 1},
        "onset": {"type": ["integer", "null"], "minimum": 0},
        "seeds": {"type": "array", "items": {"type": "integer",
                                             "minimum": 0}},
    },
}

CASCADE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro tiered-cascade accuracy/cost frontier report",
    "type": "object",
    "required": ["schema_version", "benchmark", "quick", "default_mode",
                 "scenarios", "modes"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [1]},
        "benchmark": {"type": "string"},
        "quick": {"type": "boolean"},
        "default_mode": {"type": "string"},
        "scenarios": {"type": "object", "properties": {},
                      "additionalProperties": _SCENARIO_ENTRY},
        "modes": {"type": "object", "properties": {},
                  "additionalProperties": _MODE_ENTRY},
    },
}


def _check_default_mode(report: dict) -> None:
    if report["default_mode"] not in report["modes"]:
        raise ReportError(
            f"default_mode {report['default_mode']!r} is not one of the "
            f"scored modes {sorted(report['modes'])}")


CASCADE_REPORT = Contract(CASCADE_SCHEMA, "cascade report", ReportError,
                          check=_check_default_mode)


def frontier_summary(report: dict) -> dict:
    """The headline frontier numbers the CI gate and README table use:
    for every mode, the stationary escalation share / cost and the
    abrupt-scenario detection delay."""
    summary = {}
    for name, entry in report["modes"].items():
        stationary = entry["scenarios"]["stationary"]
        abrupt = entry["scenarios"]["abrupt"]
        summary[name] = {
            "kind": entry["kind"],
            "threshold": entry["threshold"],
            "stationary_escalated_pct": stationary["escalated_pct"],
            "stationary_us_per_frame": stationary["us_per_frame"],
            "stationary_false_alarms": stationary["false_alarms"],
            "abrupt_delay": abrupt["detection_delay"],
            "abrupt_detected_runs": abrupt["detected_runs"],
        }
    return summary
