"""SLO report maths and the SERVE_SCHEMA contract."""

from __future__ import annotations

import pytest

from repro.errors import ReportError
from repro.serve import (
    SERVE_REPORT,
    DriftServer,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.serve.report import nearest_rank
from tests.serve.conftest import gaussian_stream, unconstrained

CAPACITY = capacity_fps()


def run_small(seed=6, n=24):
    frames = gaussian_stream(seed, [(0.0, n)])
    arrivals = generate_arrivals(
        frames, WorkloadConfig(rate_fps=CAPACITY * 0.8),
        stream_id="cam", deadline_ms=1e9, seed=seed)
    return DriftServer([unconstrained("cam", seed)]).run(arrivals)


def valid_document():
    result = run_small()
    return {
        "schema_version": 2,
        "benchmark": "serve_unit",
        "quick": True,
        "config": {"streams": 1, "frames_per_stream": 24,
                   "batch_size": 16, "queue_capacity": 64,
                   "deadline_ms": 100.0, "shed_policy": "drop-oldest",
                   "pattern": "poisson", "seed": 6},
        "capacity_fps": round(result.capacity_fps, 6),
        "frame_cost_ms": round(result.frame_cost_ms, 6),
        "degraded_cost_ms": round(result.degraded_cost_ms, 6),
        "sweep": [result.slo_entry(0.8, CAPACITY * 0.8)],
    }


class TestNearestRank:
    def test_empty_sample_is_zero(self):
        assert nearest_rank([], 50.0) == 0.0

    def test_median_of_odd_sample(self):
        assert nearest_rank([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_p99_is_max_for_small_samples(self):
        values = [float(v) for v in range(10)]
        assert nearest_rank(values, 99.0) == 9.0

    def test_percentile_must_be_in_range(self):
        with pytest.raises(ReportError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ReportError):
            nearest_rank([1.0], 101.0)

    def test_nearest_rank_is_an_element(self):
        values = [0.5, 9.25, 3.0, 7.125]
        for q in (1.0, 25.0, 50.0, 75.0, 99.0, 100.0):
            assert nearest_rank(values, q) in values


class TestServeResultAccounting:
    def test_totals_and_throughput(self):
        result = run_small(seed=6, n=24)
        assert result.processed == 24
        assert result.served == 24
        assert result.throughput_fps == pytest.approx(
            24 / (result.makespan_ms / 1000.0))
        assert result.goodput_fps == pytest.approx(
            (24 - result.deadline_misses)
            / (result.makespan_ms / 1000.0))
        assert set(result.latencies_ms()) == set(
            result.streams["cam"].latencies_ms)

    def test_slo_entry_is_schema_shaped(self):
        SERVE_REPORT.validate(valid_document())

    def test_backend_ledger_accounts_for_makespan(self):
        """Every simulated millisecond is attributed to an operation."""
        result = run_small(seed=8, n=30)
        assert sum(result.backend_ledger.values()) == pytest.approx(
            result.makespan_ms)


class TestSchemaValidation:
    def test_missing_required_key_rejected(self):
        document = valid_document()
        del document["capacity_fps"]
        with pytest.raises(ReportError, match="capacity_fps"):
            SERVE_REPORT.validate(document)

    def test_unknown_key_rejected(self):
        document = valid_document()
        document["sweep"][0]["totals"]["surprise"] = 1
        with pytest.raises(ReportError, match="surprise"):
            SERVE_REPORT.validate(document)

    def test_wrong_type_rejected(self):
        document = valid_document()
        document["sweep"][0]["totals"]["processed"] = "many"
        with pytest.raises(ReportError):
            SERVE_REPORT.validate(document)

    def test_bad_shed_policy_rejected(self):
        document = valid_document()
        document["config"]["shed_policy"] = "coin-flip"
        with pytest.raises(ReportError):
            SERVE_REPORT.validate(document)
