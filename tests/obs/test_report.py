"""Telemetry summary contract: schema and consistency checks, merging,
rendering (the I/O every contract shares is in ``test_contracts.py``)."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.obs import (
    TELEMETRY_SUMMARY,
    Recorder,
    format_summary,
    merge_telemetry,
)
from repro.obs.schema import Contract, walk_schema
from repro.sim.clock import SimulatedClock


def make_summary(counter: float = 2.0) -> dict:
    clock = SimulatedClock()
    recorder = Recorder(clock=clock)
    recorder.event("drift_detected", frame=1)
    recorder.counter("frames").inc(counter)
    recorder.gauge("registry").set(3.0)
    recorder.histogram("p", boundaries=(0.5,)).observe(0.25)
    with recorder.span("stage"):
        clock.charge_ms("work", 4.0)
    return recorder.summary()


class TestValidateTelemetry:
    def test_live_summary_validates(self):
        TELEMETRY_SUMMARY.validate(make_summary())

    def test_missing_section_rejected(self):
        summary = make_summary()
        del summary["counters"]
        with pytest.raises(TelemetryError, match="violates schema"):
            TELEMETRY_SUMMARY.validate(summary)

    def test_unknown_top_level_key_rejected(self):
        summary = make_summary()
        summary["surprise"] = 1
        with pytest.raises(TelemetryError, match="violates schema"):
            TELEMETRY_SUMMARY.validate(summary)

    def test_negative_counter_rejected(self):
        summary = make_summary()
        summary["counters"]["frames"] = -1.0
        with pytest.raises(TelemetryError, match="violates schema"):
            TELEMETRY_SUMMARY.validate(summary)

    def test_inconsistent_event_totals_rejected(self):
        summary = make_summary()
        summary["events"]["total"] += 1
        with pytest.raises(TelemetryError, match="inconsistent"):
            TELEMETRY_SUMMARY.validate(summary)

    def test_histogram_bucket_arity_enforced(self):
        summary = make_summary()
        summary["histograms"]["p"]["counts"].append(0)
        with pytest.raises(TelemetryError, match="buckets"):
            TELEMETRY_SUMMARY.validate(summary)

    def test_histogram_count_sum_enforced(self):
        summary = make_summary()
        summary["histograms"]["p"]["total"] += 1
        with pytest.raises(TelemetryError, match="sum to total"):
            TELEMETRY_SUMMARY.validate(summary)


class TestMergeTelemetry:
    def test_additive_sections_add(self):
        merged = merge_telemetry([make_summary(2.0), make_summary(3.0)])
        assert merged["counters"]["frames"] == 5.0
        assert merged["events"]["by_kind"]["drift_detected"] == 2
        assert merged["histograms"]["p"]["total"] == 2
        assert merged["spans"]["stage"]["count"] == 2
        assert merged["spans"]["stage"]["max_ms"] == 4.0
        TELEMETRY_SUMMARY.validate(merged)

    def test_gauges_take_last_shard(self):
        first, second = make_summary(), make_summary()
        first["gauges"]["registry"] = 1.0
        second["gauges"]["registry"] = 9.0
        assert merge_telemetry([first, second])["gauges"]["registry"] == 9.0

    def test_merge_is_order_invariant_modulo_gauges(self):
        one, two = make_summary(1.0), make_summary(4.0)
        forward = merge_telemetry([one, two])
        backward = merge_telemetry([two, one])
        forward.pop("gauges")
        backward.pop("gauges")
        assert forward == backward

    def test_boundary_mismatch_rejected(self):
        first, second = make_summary(), make_summary()
        second["histograms"]["p"]["boundaries"] = [0.9]
        with pytest.raises(TelemetryError, match="boundary mismatch"):
            merge_telemetry([first, second])

    def test_empty_merge_is_the_neutral_document(self):
        merged = merge_telemetry([])
        assert merged["events"]["total"] == 0
        TELEMETRY_SUMMARY.validate(merged)


class TestFormatSummary:
    def test_renders_spans_counters_and_event_line(self):
        text = format_summary(make_summary(), title="run report")
        lines = text.splitlines()
        assert lines[0] == "run report"
        assert lines[1] == "=" * len("run report")
        assert any("stage" in line for line in lines)
        assert any("frames" in line for line in lines)
        assert lines[-1].startswith("events: ")

    def test_spans_sorted_by_total_time(self):
        clock = SimulatedClock()
        recorder = Recorder(clock=clock)
        for name, cost in (("cheap", 1.0), ("hot", 50.0)):
            with recorder.span(name):
                clock.charge_ms("work", cost)
        text = format_summary(recorder.summary())
        assert text.index("hot") < text.index("cheap")


class TestSchemaWalker:
    def test_walk_schema_reports_paths(self):
        schema = {"type": "object", "required": ["x"],
                  "properties": {"x": {"type": "integer", "minimum": 0}}}
        errors: list = []
        walk_schema({"x": -1}, schema, "$", errors)
        assert errors and "$.x" in errors[0]

    def test_validate_document_uses_custom_error(self):
        class Boom(Exception):
            pass

        with pytest.raises(Boom, match="label violates schema"):
            Contract({"type": "object"}, "label", Boom).validate([])
