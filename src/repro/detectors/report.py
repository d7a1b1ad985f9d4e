"""The ``BENCH_detectors.json`` accuracy contract.

``benchmarks/bench_detectors.py`` scores every detector registered in the
:mod:`~repro.detectors.zoo` on the scenario matrix and writes one document
in this shape through :data:`DETECTORS_REPORT`, a
:class:`~repro.obs.schema.Contract` over :data:`DETECTORS_SCHEMA`.  The
document is committed to the repo, so `scripts/check.sh` can diff
detector accuracy regressions the same way it diffs latency regressions.

Per detector x scenario the report carries three standard drift-detection
accuracy metrics, each averaged over the scenario's seeds:

``detection_delay``
    Frames between the scenario's drift onset and the first detection at
    or after it; ``null`` when no run detected the drift (and
    ``detected_runs`` says how many did).

``false_alarms``
    Mean number of detections strictly before the onset (every detection
    counts as false on stationary scenarios).

``mtbfa``
    Mean time between false alarms: pre-onset frames divided by the false
    alarm count, ``null`` when no run raised any false alarm.

Script-backed scenarios (compiled from :mod:`repro.scenarios` drift
scripts) additionally label each scenario with its ground-truth
``factors`` and drift ``kind``, and each detected cell with an
``attribution`` map -- per-factor sigma scores diagnosing which
generative factor moved at the first post-onset detection, averaged over
detecting seeds.  All three keys are optional, so hand-rolled segment
scenarios and pre-existing reports stay schema-valid.

Every number is computed in the simulated pipeline, so the committed
report is reproducible bit for bit on any machine.
"""

from __future__ import annotations

from repro.errors import ReportError
from repro.obs.schema import Contract

_METRICS_ENTRY = {
    "type": "object",
    "required": ["detection_delay", "detected_runs", "runs",
                 "false_alarms", "mtbfa"],
    "additionalProperties": False,
    "properties": {
        "detection_delay": {"type": ["number", "null"], "minimum": 0},
        "detected_runs": {"type": "integer", "minimum": 0},
        "runs": {"type": "integer", "minimum": 1},
        "false_alarms": {"type": "number", "minimum": 0},
        "mtbfa": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "attribution": {"type": "object", "properties": {},
                        "additionalProperties": {"type": "number",
                                                 "minimum": 0}},
    },
}

_DETECTOR_ENTRY = {
    "type": "object",
    "required": ["family", "rollback", "scenarios"],
    "additionalProperties": False,
    "properties": {
        "family": {"type": "string"},
        "rollback": {"type": "boolean"},
        "scenarios": {"type": "object", "properties": {},
                      "additionalProperties": _METRICS_ENTRY},
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
        "factors": {"type": "array", "items": {"type": "string"}},
        "kind": {"type": ["string", "null"]},
    },
}

DETECTORS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro drift-detector accuracy report (scenario matrix)",
    "type": "object",
    "required": ["schema_version", "benchmark", "quick", "scenarios",
                 "detectors"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [1]},
        "benchmark": {"type": "string"},
        "quick": {"type": "boolean"},
        "scenarios": {"type": "object", "properties": {},
                      "additionalProperties": _SCENARIO_ENTRY},
        "detectors": {"type": "object", "properties": {},
                      "additionalProperties": _DETECTOR_ENTRY},
    },
}


DETECTORS_REPORT = Contract(DETECTORS_SCHEMA, "detectors report",
                            ReportError)
