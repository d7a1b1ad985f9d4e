"""DETECTORS_SCHEMA accepts the report's shape and rejects malformed
documents (the I/O every contract shares is in
``tests/obs/test_contracts.py``)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.detectors.report import DETECTORS_REPORT, DETECTORS_SCHEMA
from repro.errors import ReportError


def minimal_report() -> dict:
    return {
        "schema_version": 1,
        "benchmark": "drift-detector accuracy: scenario matrix",
        "quick": True,
        "scenarios": {
            "abrupt": {"frames": 120, "onset": 60, "seeds": [0]},
            "stationary": {"frames": 120, "onset": None, "seeds": [0]},
        },
        "detectors": {
            "cusum": {
                "family": "statistical",
                "rollback": True,
                "scenarios": {
                    "abrupt": {"detection_delay": 1.0, "detected_runs": 1,
                               "runs": 1, "false_alarms": 0.0,
                               "mtbfa": None},
                    "stationary": {"detection_delay": None,
                                   "detected_runs": 0, "runs": 1,
                                   "false_alarms": 1.0, "mtbfa": 120.0},
                },
            },
        },
    }


class TestValidDocuments:
    def test_minimal_report_validates(self):
        DETECTORS_REPORT.validate(minimal_report())

    def test_nullable_metrics(self):
        """Both ``detection_delay`` and ``mtbfa`` are null exactly when
        their denominator never materialised."""
        report = minimal_report()
        cell = report["detectors"]["cusum"]["scenarios"]["abrupt"]
        cell["detection_delay"] = None
        cell["mtbfa"] = 60.0
        DETECTORS_REPORT.validate(report)


class TestRejectedDocuments:
    def test_extra_top_level_key_rejected(self):
        report = minimal_report()
        report["surprise"] = 1
        with pytest.raises(ReportError, match="surprise"):
            DETECTORS_REPORT.validate(report)

    def test_extra_metrics_key_rejected(self):
        """additionalProperties is strict all the way down: an unknown
        key inside a metrics cell fails, not just at the top level."""
        report = minimal_report()
        report["detectors"]["cusum"]["scenarios"]["abrupt"]["extra"] = 1
        with pytest.raises(ReportError, match="extra"):
            DETECTORS_REPORT.validate(report)

    def test_extra_detector_entry_key_rejected(self):
        report = minimal_report()
        report["detectors"]["cusum"]["nickname"] = "chart"
        with pytest.raises(ReportError, match="nickname"):
            DETECTORS_REPORT.validate(report)

    @pytest.mark.parametrize("key", ["schema_version", "benchmark",
                                     "quick", "scenarios", "detectors"])
    def test_missing_required_key_rejected(self, key):
        report = minimal_report()
        del report[key]
        with pytest.raises(ReportError, match=key):
            DETECTORS_REPORT.validate(report)

    def test_missing_metric_rejected(self):
        report = minimal_report()
        del report["detectors"]["cusum"]["scenarios"]["abrupt"]["mtbfa"]
        with pytest.raises(ReportError, match="mtbfa"):
            DETECTORS_REPORT.validate(report)

    def test_wrong_schema_version_rejected(self):
        report = minimal_report()
        report["schema_version"] = 2
        with pytest.raises(ReportError, match="schema_version"):
            DETECTORS_REPORT.validate(report)

    def test_negative_delay_rejected(self):
        report = minimal_report()
        report["detectors"]["cusum"]["scenarios"]["abrupt"][
            "detection_delay"] = -1.0
        with pytest.raises(ReportError, match="detection_delay"):
            DETECTORS_REPORT.validate(report)

    def test_zero_mtbfa_rejected(self):
        """mtbfa is null or strictly positive, never zero."""
        report = minimal_report()
        report["detectors"]["cusum"]["scenarios"]["stationary"][
            "mtbfa"] = 0.0
        with pytest.raises(ReportError, match="mtbfa"):
            DETECTORS_REPORT.validate(report)

    def test_boolean_not_accepted_as_integer(self):
        report = minimal_report()
        report["detectors"]["cusum"]["scenarios"]["abrupt"][
            "detected_runs"] = True
        with pytest.raises(ReportError, match="detected_runs"):
            DETECTORS_REPORT.validate(report)

    def test_load_rejects_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        report = minimal_report()
        del report["detectors"]
        path.write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(ReportError, match="detectors"):
            DETECTORS_REPORT.load(str(path))

    def test_schema_itself_is_strict_everywhere(self):
        """Every object schema in the contract pins
        additionalProperties (False or a map sub-schema): no silently
        accepted free-form objects."""
        def assert_strict(schema, path):
            if schema.get("type") == "object" or "properties" in schema:
                assert "additionalProperties" in schema, path
            for key, sub in schema.get("properties", {}).items():
                if isinstance(sub, dict):
                    assert_strict(sub, f"{path}.{key}")
            additional = schema.get("additionalProperties")
            if isinstance(additional, dict):
                assert_strict(additional, f"{path}.*")
            if isinstance(schema.get("items"), dict):
                assert_strict(schema["items"], f"{path}[]")

        assert_strict(copy.deepcopy(DETECTORS_SCHEMA), "$")
