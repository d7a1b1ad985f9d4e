"""The artifact contract shared by every machine-readable document.

The repo commits six kinds of JSON document -- the telemetry summary
(:mod:`repro.obs.report`), ``BENCH_pipeline.json``
(:mod:`repro.parallel.report`), ``BENCH_serve.json``
(:mod:`repro.serve.report`), ``BENCH_detectors.json``
(:mod:`repro.detectors.report`), ``BENCH_cascade.json``
(:mod:`repro.cascade.report`) and the scenario ground-truth document
(:mod:`repro.scenarios.report`).  Each module owns its schema dict and
one :class:`Contract` constant built from it; the contract validates,
writes and loads documents of that kind, so no report module carries
its own copy of that plumbing.

Validation runs on a dependency-free walker implementing the subset of
JSON Schema the contracts use: ``type``, ``required``, ``properties``,
``additionalProperties`` (``False`` or a sub-schema for map-like objects),
``items``, ``minItems``, ``enum``, ``minimum``, ``maximum``,
``exclusiveMinimum``.  When the ``jsonschema`` package is importable the
document is cross-checked with it too, guarding the hand-rolled walker.

This module imports nothing from ``repro``, so every layer can build on
it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Type

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass in Python; a schema integer must reject it
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "null": lambda v: v is None,
}


def walk_schema(value: object, schema: dict, path: str,
                errors: List[str]) -> None:
    """Append a message to ``errors`` for every way ``value`` violates
    ``schema``; ``path`` locates the value inside the document."""
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in allowed):
            errors.append(
                f"{path}: expected {expected}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if "maximum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum {schema['maximum']}")
    if "exclusiveMinimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value <= schema["exclusiveMinimum"]:
            errors.append(
                f"{path}: {value} <= exclusiveMinimum "
                f"{schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties")
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required key {name!r}")
        if additional is False:
            for name in value:
                if name not in properties:
                    errors.append(f"{path}: unexpected key {name!r}")
        elif isinstance(additional, dict):
            # map-like object: free keys, uniform value schema
            for name, entry in value.items():
                if name not in properties:
                    walk_schema(entry, additional, f"{path}.{name}", errors)
        for name, subschema in properties.items():
            if name in value:
                walk_schema(value[name], subschema, f"{path}.{name}", errors)
    elif isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(
                f"{path}: {len(value)} items < minItems "
                f"{schema['minItems']}")
        if "items" in schema:
            for i, entry in enumerate(value):
                walk_schema(entry, schema["items"], f"{path}[{i}]", errors)


@dataclass(frozen=True)
class Contract:
    """One document kind: its schema, the label error messages name it
    by, the error class it raises, and an optional ``check`` for the
    internal consistency a schema cannot express (called with a
    schema-valid document; it raises on its own)."""

    schema: dict
    label: str
    error: Type[Exception]
    check: Optional[Callable[[dict], None]] = None

    def validate(self, document: object) -> None:
        """Raise :attr:`error` unless ``document`` satisfies the schema
        (walker, then ``jsonschema`` when installed) and :attr:`check`."""
        errors: List[str] = []
        walk_schema(document, self.schema, "$", errors)
        if errors:
            raise self.error(
                f"{self.label} violates schema:\n  " + "\n  ".join(errors))
        try:
            import jsonschema
        except ImportError:
            pass
        else:
            try:
                jsonschema.validate(document, self.schema)
            except jsonschema.ValidationError as exc:
                raise self.error(f"{self.label} violates schema "
                                 f"(jsonschema): {exc.message}") from exc
        if self.check is not None:
            self.check(document)

    def write(self, path: str, document: dict) -> None:
        """Validate ``document`` and write it to ``path`` as formatted
        JSON (sorted keys, two-space indent, trailing newline)."""
        self.validate(document)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def load(self, path: str) -> dict:
        """Read and validate a document written by :meth:`write`."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise self.error(
                    f"{self.label} {path} is not valid JSON: {exc}") from exc
        self.validate(document)
        return document
