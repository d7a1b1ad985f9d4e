"""The telemetry-summary contract (:data:`TELEMETRY_SUMMARY`).

:meth:`repro.obs.recorder.Recorder.summary` emits one JSON document per
run: event totals, counters, gauges, fixed-bucket histograms and per-span
timing aggregates.  This module owns that document's schema and its
:class:`~repro.obs.schema.Contract` (validate / write / load, plus the
event-tally and histogram consistency checks the schema cannot
express), merging for fleet shards, and a plain text renderer for the
experiments runner.

``scripts/check.sh`` validates the committed golden telemetry snapshot --
and a freshly produced summary -- on every run, so schema drift fails CI.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import TelemetryError
from repro.obs.schema import Contract

_STAT_ENTRY = {
    "type": "object",
    "required": ["count", "total_ms", "max_ms"],
    "additionalProperties": False,
    "properties": {
        "count": {"type": "integer", "minimum": 1},
        "total_ms": {"type": "number", "minimum": 0},
        "max_ms": {"type": "number", "minimum": 0},
    },
}

_HISTOGRAM_ENTRY = {
    "type": "object",
    "required": ["boundaries", "counts", "total", "sum"],
    "additionalProperties": False,
    "properties": {
        "boundaries": {"type": "array", "items": {"type": "number"}},
        "counts": {"type": "array",
                   "items": {"type": "integer", "minimum": 0}},
        "total": {"type": "integer", "minimum": 0},
        "sum": {"type": "number"},
    },
}

TELEMETRY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro run telemetry summary",
    "type": "object",
    "required": ["schema_version", "events", "counters", "gauges",
                 "histograms", "spans"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [1]},
        "events": {
            "type": "object",
            "required": ["total", "logical", "timing", "by_kind"],
            "additionalProperties": False,
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "logical": {"type": "integer", "minimum": 0},
                "timing": {"type": "integer", "minimum": 0},
                "by_kind": {"type": "object", "properties": {},
                            "additionalProperties": {
                                "type": "integer", "minimum": 1}},
            },
        },
        "counters": {"type": "object", "properties": {},
                     "additionalProperties": {"type": "number",
                                              "minimum": 0}},
        "gauges": {"type": "object", "properties": {},
                   "additionalProperties": {"type": "number"}},
        "histograms": {"type": "object", "properties": {},
                       "additionalProperties": _HISTOGRAM_ENTRY},
        "spans": {"type": "object", "properties": {},
                  "additionalProperties": _STAT_ENTRY},
    },
}


def _check_consistency(summary: dict) -> None:
    """The internal consistency the schema alone cannot express."""
    events = summary["events"]
    if events["total"] != events["logical"] + events["timing"]:
        raise TelemetryError(
            f"telemetry summary inconsistent: total {events['total']} != "
            f"logical {events['logical']} + timing {events['timing']}")
    if sum(events["by_kind"].values()) != events["total"]:
        raise TelemetryError(
            "telemetry summary inconsistent: by_kind counts do not sum "
            "to the event total")
    for name, histogram in summary["histograms"].items():
        if len(histogram["counts"]) != len(histogram["boundaries"]) + 1:
            raise TelemetryError(
                f"histogram {name!r} must have len(boundaries)+1 buckets")
        if sum(histogram["counts"]) != histogram["total"]:
            raise TelemetryError(
                f"histogram {name!r} bucket counts do not sum to total")


TELEMETRY_SUMMARY = Contract(TELEMETRY_SCHEMA, "telemetry summary",
                             TelemetryError, check=_check_consistency)


def merge_telemetry(summaries: Sequence[dict]) -> dict:
    """Fold per-shard summaries into one fleet-level summary.

    Counters, event tallies, span aggregates and histogram buckets add;
    gauges keep the last shard's value (they are point-in-time readings);
    histograms must agree on boundaries.  Merging is order-dependent only
    for gauges, and the fleet merges shards in submission order, so the
    merged document is deterministic.
    """
    merged: dict = {
        "schema_version": 1,
        "events": {"total": 0, "logical": 0, "timing": 0, "by_kind": {}},
        "counters": {}, "gauges": {}, "histograms": {}, "spans": {},
    }
    for summary in summaries:
        TELEMETRY_SUMMARY.validate(summary)
        events = merged["events"]
        for key in ("total", "logical", "timing"):
            events[key] += summary["events"][key]
        for kind, count in summary["events"]["by_kind"].items():
            events["by_kind"][kind] = events["by_kind"].get(kind, 0) + count
        for name, value in summary["counters"].items():
            merged["counters"][name] = (
                merged["counters"].get(name, 0) + value)
        merged["gauges"].update(summary["gauges"])
        for name, histogram in summary["histograms"].items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "boundaries": list(histogram["boundaries"]),
                    "counts": list(histogram["counts"]),
                    "total": histogram["total"],
                    "sum": histogram["sum"]}
                continue
            if into["boundaries"] != list(histogram["boundaries"]):
                raise TelemetryError(
                    f"cannot merge histogram {name!r}: boundary mismatch")
            into["counts"] = [a + b for a, b in zip(into["counts"],
                                                    histogram["counts"])]
            into["total"] += histogram["total"]
            into["sum"] += histogram["sum"]
        for name, stats in summary["spans"].items():
            into = merged["spans"].get(name)
            if into is None:
                merged["spans"][name] = dict(stats)
            else:
                into["count"] += stats["count"]
                into["total_ms"] += stats["total_ms"]
                into["max_ms"] = max(into["max_ms"], stats["max_ms"])
    merged["events"]["by_kind"] = dict(
        sorted(merged["events"]["by_kind"].items()))
    for key in ("counters", "gauges", "histograms", "spans"):
        merged[key] = dict(sorted(merged[key].items()))
    TELEMETRY_SUMMARY.validate(merged)
    return merged


def format_summary(summary: dict,
                   title: str = "telemetry summary") -> str:
    """Render a summary as an aligned text report (spans by total time,
    then counters), for the experiments runner and examples."""
    lines: List[str] = [title, "=" * len(title)]
    spans: Dict[str, dict] = summary.get("spans", {})
    if spans:
        ordered: List[Tuple[str, dict]] = sorted(
            spans.items(), key=lambda item: (-item[1]["total_ms"], item[0]))
        name_width = max(len("span"), max(len(n) for n, _ in ordered))
        lines.append(f"{'span':<{name_width}}  {'count':>7}  "
                     f"{'total_ms':>12}  {'max_ms':>10}")
        for name, stats in ordered:
            lines.append(
                f"{name:<{name_width}}  {stats['count']:>7d}  "
                f"{stats['total_ms']:>12.3f}  {stats['max_ms']:>10.3f}")
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        name_width = max(len("counter"), max(len(n) for n in counters))
        lines.append(f"{'counter':<{name_width}}  {'value':>12}")
        for name in sorted(counters):
            value = counters[name]
            rendered = (f"{int(value):>12d}" if float(value).is_integer()
                        else f"{value:>12.3f}")
            lines.append(f"{name:<{name_width}}  {rendered}")
    events = summary.get("events")
    if events is not None:
        lines.append("")
        lines.append(f"events: {events['total']} "
                     f"({events['logical']} logical, "
                     f"{events['timing']} timing)")
    return "\n".join(lines)
