"""The machine-readable scenario contract (``SCENARIO_SCHEMA``).

Every :class:`~repro.scenarios.script.DriftScript` serializes to one
JSON document via :func:`script_document`: the factor tracks, the
derived ground-truth event log, and the drifted-factor summary.  The
``scenarios-smoke`` CI gate compiles every built-in script to all three
backends and validates this document, so a script whose declarative
parameters stop matching its compiled ground truth fails CI rather than
silently mislabeling a benchmark.

:data:`SCENARIO_DOCUMENT` is the document's
:class:`~repro.obs.schema.Contract`, like every other report contract
in the repo.  This is the first contract to use the walker's
``minItems`` keyword: an event must name at least one moved factor, and
a drifting script's event log must not be empty.
"""

from __future__ import annotations

from repro.errors import ScenarioError
from repro.obs.schema import Contract
from repro.scenarios.script import (
    EVENT_KINDS,
    FACTORS,
    KINDS,
    DriftScript,
)

SCENARIO_SCHEMA_VERSION = 1

_TRACK_ENTRY = {
    "type": "object",
    "required": ["factor", "kind", "onset", "magnitude"],
    "additionalProperties": False,
    "properties": {
        "factor": {"type": "string", "enum": list(FACTORS)},
        "kind": {"type": "string", "enum": list(KINDS)},
        "onset": {"type": "integer", "minimum": 0},
        "magnitude": {"type": "number"},
        "duration": {"type": "integer", "minimum": 0},
        "period": {"type": "integer", "minimum": 0},
        "recurrences": {"type": "integer", "minimum": 0},
        "recovery": {"type": "integer", "minimum": 0},
        "steps": {"type": "integer", "minimum": 0},
    },
}

_EVENT_ENTRY = {
    "type": "object",
    "required": ["frame", "factors", "kind", "magnitude"],
    "additionalProperties": False,
    "properties": {
        "frame": {"type": "integer", "minimum": 0},
        "factors": {"type": "array", "minItems": 1,
                    "items": {"type": "string", "enum": list(FACTORS)}},
        "kind": {"type": "string", "enum": list(EVENT_KINDS)},
        "magnitude": {"type": "number"},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro drift scenario (factor-controlled script)",
    "type": "object",
    "required": ["schema_version", "name", "frames", "feature_scale",
                 "stationary", "factors", "tracks", "events"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer",
                           "enum": [SCENARIO_SCHEMA_VERSION]},
        "name": {"type": "string"},
        "frames": {"type": "integer", "exclusiveMinimum": 0},
        "feature_scale": {"type": "number", "exclusiveMinimum": 0},
        "stationary": {"type": "boolean"},
        "factors": {"type": "array",
                    "items": {"type": "string", "enum": list(FACTORS)}},
        "tracks": {"type": "array", "items": _TRACK_ENTRY},
        "events": {"type": "array", "items": _EVENT_ENTRY},
    },
}


def script_document(script: DriftScript) -> dict:
    """Serialize ``script`` (and its derived ground truth) to the
    ``SCENARIO_SCHEMA`` shape."""
    document = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": script.name,
        "frames": script.frames,
        "feature_scale": script.feature_scale,
        "stationary": script.stationary,
        "factors": list(script.drifted_factors()),
        "tracks": [{
            "factor": track.factor,
            "kind": track.kind,
            "onset": track.onset,
            "magnitude": track.magnitude,
            "duration": track.duration,
            "period": track.period,
            "recurrences": track.recurrences,
            "recovery": track.recovery,
            "steps": track.steps,
        } for track in script.tracks],
        "events": [{
            "frame": event.frame,
            "factors": list(event.factors),
            "kind": event.kind,
            "magnitude": event.magnitude,
        } for event in script.events()],
    }
    # a drifting script with no events would mislabel every benchmark
    # built on it; make the walker reject the document outright
    if not script.stationary:
        document_events = document["events"]
        if not document_events:
            raise ScenarioError(
                f"script {script.name!r} drifts but derives no events")
    return document


SCENARIO_DOCUMENT = Contract(SCENARIO_SCHEMA, "scenario document",
                             ScenarioError)
