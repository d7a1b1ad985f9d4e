"""The detector benchmark is pinned bit-for-bit on a small slice.

A fixed three-detector slice of the matrix (one chart, one window test,
the paper's inspector) over two quick scenarios and one seed goes into
``tests/golden/detectors_bench.json``.  Any numeric drift in detection
delay, false alarms or MTBFA -- however small -- fails the comparison;
rerun ``pytest --update-golden`` after an intentional behaviour change.
"""

from __future__ import annotations

import pytest

from repro.detectors.bench import (
    DEFAULT_SEEDS,
    Scenario,
    run_benchmark,
    scenario_matrix,
    score_detections,
    score_run,
)
from repro.detectors.report import DETECTORS_REPORT
from repro.errors import DetectorZooError

SLICE_DETECTORS = ("cusum", "kswin", "inspector")
SLICE_SCENARIOS = {
    "abrupt": Scenario("abrupt", ((0.0, 60), (6.0, 60)), onset=60),
    "stationary": Scenario("stationary", ((0.0, 120),), onset=None),
}


def slice_report() -> dict:
    return run_benchmark(detectors=SLICE_DETECTORS,
                         scenarios=SLICE_SCENARIOS, seeds=(0,), quick=True)


class TestGoldenSlice:
    def test_slice_matches_golden(self, golden):
        golden("detectors_bench", slice_report())

    def test_slice_is_schema_valid(self):
        DETECTORS_REPORT.validate(slice_report())

    def test_slice_is_deterministic(self):
        assert slice_report() == slice_report()


class TestHarness:
    def test_quick_matrix_halves_full_matrix(self):
        full = scenario_matrix(quick=False)
        quick = scenario_matrix(quick=True)
        assert set(full) == set(quick)
        for name in full:
            assert quick[name].frames <= full[name].frames // 2 + len(
                full[name].segments)
            if full[name].onset is not None:
                assert quick[name].onset < full[name].onset
            else:
                assert quick[name].onset is None

    def test_score_run_separates_false_alarms_from_detection(self):
        run = score_run("cusum", SLICE_SCENARIOS["abrupt"], seed=0)
        assert run["delay"] is not None and run["delay"] >= 0
        assert run["false_alarms"] == 0
        assert run["pre_frames"] == 60

    def test_stationary_detections_all_count_as_false_alarms(self):
        run = score_run("cusum", SLICE_SCENARIOS["stationary"], seed=0)
        assert run["delay"] is None
        assert run["pre_frames"] == 120

    def test_empty_detector_selection_rejected(self):
        with pytest.raises(DetectorZooError, match="no detectors"):
            run_benchmark(detectors=(), seeds=(0,))

    def test_empty_seeds_rejected(self):
        with pytest.raises(DetectorZooError, match="seed"):
            run_benchmark(detectors=SLICE_DETECTORS,
                          scenarios=SLICE_SCENARIOS, seeds=())

    def test_default_seeds_are_stable(self):
        assert DEFAULT_SEEDS == (0, 1, 2)


class TestScoreDetections:
    """The one delay / false-alarm definition both benchmarks share."""

    @pytest.mark.parametrize("indices,onset,expected", [
        ([], 60, (None, 0)),
        ([75, 64, 90], 60, (4, 0)),
        ([10, 59, 60, 80], 60, (0, 2)),
        ([5, 40], 60, (None, 2)),
        ([3, 90], None, (None, 2)),
    ], ids=["never caught", "first at or after onset", "earlier are false",
            "false alarms and a miss", "stationary"])
    def test_scores_against_the_onset(self, indices, onset, expected):
        assert score_detections(indices, onset) == expected
