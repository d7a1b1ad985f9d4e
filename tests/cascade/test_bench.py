"""CASCADE_SCHEMA round trips, frontier scoring, and the committed
``BENCH_cascade.json`` acceptance bars."""

from __future__ import annotations

import os

import pytest

from repro.cascade.bench import (
    DEFAULT_THRESHOLD,
    default_mode_name,
    mode_matrix,
    run_benchmark,
)
from repro.cascade.report import CASCADE_REPORT, frontier_summary
from repro.detectors.bench import Scenario
from repro.errors import CascadeError, ReportError

COMMITTED_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "BENCH_cascade.json")

#: The CI gate's frontier bars (mirrored by ``scripts/check.sh``):
#: stationary escalation share, stationary cost vs always-on DI, and
#: abrupt detection delay vs always-on DI.
MAX_STATIONARY_ESCALATED_PCT = 20.0
MIN_COST_ADVANTAGE = 3.0
MAX_DELAY_RATIO = 2.0


def minimal_report() -> dict:
    cell = {"detection_delay": 2.0, "detected_runs": 1, "runs": 1,
            "false_alarms": 0.0, "escalated_pct": 5.0,
            "us_per_frame": 200.0}
    return {
        "schema_version": 1,
        "benchmark": "tiered-cascade accuracy/cost frontier",
        "quick": True,
        "default_mode": "cascade@3.5",
        "scenarios": {
            "abrupt": {"frames": 120, "onset": 60, "seeds": [0]},
            "stationary": {"frames": 120, "onset": None, "seeds": [0]},
        },
        "modes": {
            "cascade@3.5": {
                "kind": "cascade",
                "threshold": 3.5,
                "scenarios": {"abrupt": dict(cell),
                              "stationary": dict(cell)},
            },
        },
    }


class TestSchema:
    def test_minimal_report_validates(self):
        CASCADE_REPORT.validate(minimal_report())

    @pytest.mark.parametrize("key", ["schema_version", "benchmark", "quick",
                                     "default_mode", "scenarios", "modes"])
    def test_missing_required_key_rejected(self, key):
        report = minimal_report()
        del report[key]
        with pytest.raises(ReportError, match=key):
            CASCADE_REPORT.validate(report)

    def test_extra_cell_key_rejected(self):
        report = minimal_report()
        report["modes"]["cascade@3.5"]["scenarios"]["abrupt"]["extra"] = 1
        with pytest.raises(ReportError, match="extra"):
            CASCADE_REPORT.validate(report)

    def test_unknown_kind_rejected(self):
        report = minimal_report()
        report["modes"]["cascade@3.5"]["kind"] = "sometimes-on"
        with pytest.raises(ReportError, match="kind"):
            CASCADE_REPORT.validate(report)

    def test_escalated_pct_bounded(self):
        report = minimal_report()
        report["modes"]["cascade@3.5"]["scenarios"]["abrupt"][
            "escalated_pct"] = 101.0
        with pytest.raises(ReportError, match="escalated_pct"):
            CASCADE_REPORT.validate(report)

    def test_zero_cost_rejected(self):
        report = minimal_report()
        report["modes"]["cascade@3.5"]["scenarios"]["abrupt"][
            "us_per_frame"] = 0.0
        with pytest.raises(ReportError, match="us_per_frame"):
            CASCADE_REPORT.validate(report)

    def test_default_mode_must_be_scored(self):
        report = minimal_report()
        report["default_mode"] = "cascade@99"
        with pytest.raises(ReportError, match="default_mode"):
            CASCADE_REPORT.validate(report)


class TestModeMatrix:
    def test_matrix_names_and_order(self):
        modes = mode_matrix((2.5, 3.5))
        assert list(modes) == ["always-on-di", "tier0-alone",
                               "cascade@2.5", "cascade@3.5"]
        assert modes["cascade@2.5"].threshold == 2.5
        assert modes["always-on-di"].threshold is None

    def test_thresholds_validated(self):
        with pytest.raises(CascadeError, match="at least one"):
            mode_matrix(())
        with pytest.raises(CascadeError, match="positive"):
            mode_matrix((0.0,))

    def test_default_mode_prefers_the_headline_threshold(self):
        assert default_mode_name((2.5, DEFAULT_THRESHOLD)) == \
            f"cascade@{DEFAULT_THRESHOLD:g}"
        assert default_mode_name((5.0, 8.0)) == "cascade@5"


class TestQuickBenchmark:
    SCENARIOS = {
        "abrupt": Scenario("abrupt", ((0.0, 60), (6.0, 60)), onset=60),
        "stationary": Scenario("stationary", ((0.0, 120),), onset=None),
    }

    @pytest.fixture(scope="class")
    def report(self):
        return run_benchmark(thresholds=(3.5,), scenarios=self.SCENARIOS,
                             seeds=(0,), quick=True)

    def test_report_is_schema_valid(self, report):
        CASCADE_REPORT.validate(report)
        assert report["quick"] is True
        assert report["default_mode"] == "cascade@3.5"

    def test_escalation_shares_bracket_the_cascade(self, report):
        summary = frontier_summary(report)
        assert summary["always-on-di"]["stationary_escalated_pct"] == 100.0
        assert summary["tier0-alone"]["stationary_escalated_pct"] == 0.0
        cascade = summary["cascade@3.5"]["stationary_escalated_pct"]
        assert 0.0 <= cascade < 100.0

    def test_costs_order_tier0_cascade_always_on(self, report):
        summary = frontier_summary(report)
        tier0 = summary["tier0-alone"]["stationary_us_per_frame"]
        cascade = summary["cascade@3.5"]["stationary_us_per_frame"]
        always = summary["always-on-di"]["stationary_us_per_frame"]
        assert tier0 <= cascade < always

    def test_benchmark_is_deterministic(self, report):
        rerun = run_benchmark(thresholds=(3.5,), scenarios=self.SCENARIOS,
                              seeds=(0,), quick=True)
        assert rerun == report

    def test_empty_seeds_rejected(self):
        with pytest.raises(CascadeError, match="seed"):
            run_benchmark(seeds=())


class TestCommittedReport:
    """The acceptance bars ISSUE 9 pins on the committed frontier --
    asserted in-tree so a regressing re-run cannot be committed even if
    the CI gate is skipped."""

    @pytest.fixture(scope="class")
    def summary(self):
        report = CASCADE_REPORT.load(COMMITTED_REPORT)
        assert report["quick"] is False
        return frontier_summary(report), report["default_mode"]

    def test_headline_mode_is_a_cascade(self, summary):
        modes, headline = summary
        assert modes[headline]["kind"] == "cascade"

    def test_stationary_escalation_within_budget(self, summary):
        modes, headline = summary
        assert modes[headline]["stationary_escalated_pct"] <= \
            MAX_STATIONARY_ESCALATED_PCT
        assert modes[headline]["stationary_false_alarms"] == 0.0

    def test_cost_advantage_over_always_on(self, summary):
        modes, headline = summary
        always = modes["always-on-di"]["stationary_us_per_frame"]
        assert modes[headline]["stationary_us_per_frame"] <= \
            always / MIN_COST_ADVANTAGE

    def test_abrupt_delay_within_ratio(self, summary):
        modes, headline = summary
        ceiling = modes["always-on-di"]
        cascade = modes[headline]
        assert cascade["abrupt_detected_runs"] == \
            ceiling["abrupt_detected_runs"]
        assert cascade["abrupt_delay"] <= \
            MAX_DELAY_RATIO * ceiling["abrupt_delay"]
