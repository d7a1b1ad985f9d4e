"""Observability is passive and deterministic at the pipeline level.

Three contracts, in increasing strength:

1. **No-op equivalence** -- running with no recorder, with the shared
   ``NULL_RECORDER``, or with a live :class:`Recorder` yields bit-identical
   :class:`PipelineResult` signatures (records, detections, invocations,
   simulated clock, fault stats).  Observability cannot change behaviour.
2. **Seed determinism** -- the same seed produces the same *logical* event
   stream (timestamps stripped) across sequential, batched (any chunking)
   and fleet (0/1/2/4 workers) execution.
3. **Golden snapshot** -- the canonical drift run's telemetry summary is
   pinned bit-for-bit in ``tests/golden/pipeline_telemetry.json``
   (``pytest --update-golden`` regenerates it after intended changes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NULL_RECORDER, Recorder, logical_events
from repro.obs.report import TELEMETRY_SUMMARY
from repro.parallel import FleetExecutor, FleetTask, fleet_telemetry
from repro.parallel.fleet import stream_seed

from tests.parallel.conftest import (
    gaussian_stream,
    make_pipeline,
    result_sig,
)

#: The canonical drift run: null -> drifted -> back, two detections.
CANONICAL_SEGMENTS = [(0.0, 150), (6.0, 150), (0.0, 150)]


def drift_stream(seed: int = 31, segments=None) -> np.ndarray:
    return gaussian_stream(seed, segments or CANONICAL_SEGMENTS)


# ----------------------------------------------------------------------
# 1. no-op equivalence
# ----------------------------------------------------------------------
class TestNoOpEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 40), batch=st.sampled_from([1, 7, 32]))
    def test_recorder_cannot_change_pipeline_output(self, seed, batch):
        stream = drift_stream(seed, [(0.0, 60), (6.0, 60)])
        bare = make_pipeline(seed=seed).process(stream)
        nulled = make_pipeline(
            seed=seed, recorder=NULL_RECORDER).process(stream)
        recorded = make_pipeline(
            seed=seed, recorder=Recorder()).process_batched(
                stream, batch_size=batch)
        assert result_sig(bare) == result_sig(nulled) == result_sig(recorded)

    def test_telemetry_none_without_recorder_present_with_one(self):
        stream = drift_stream()
        assert make_pipeline(seed=0).process(stream).telemetry is None
        telemetry = make_pipeline(
            seed=0, recorder=Recorder()).process(stream).telemetry
        assert telemetry is not None
        TELEMETRY_SUMMARY.validate(telemetry["summary"])


# ----------------------------------------------------------------------
# 2. seed determinism across execution strategies
# ----------------------------------------------------------------------
def sequential_events(seed: int, stream: np.ndarray) -> list:
    result = make_pipeline(seed=seed, recorder=Recorder()).process(stream)
    return logical_events(result.telemetry["events"])


class TestSeedDeterminism:
    def test_same_seed_same_logical_stream_sequential(self):
        stream = drift_stream()
        assert sequential_events(3, stream) == sequential_events(3, stream)

    def test_different_seed_may_differ_but_streams_stay_valid(self):
        stream = drift_stream()
        for seed in (0, 1):
            events = sequential_events(seed, stream)
            assert events[0]["kind"] == "session_start"

    @pytest.mark.parametrize("batch_size", [1, 5, 64, 450])
    def test_batched_matches_sequential_logical_stream(self, batch_size):
        stream = drift_stream()
        reference = sequential_events(7, stream)
        result = make_pipeline(seed=7, recorder=Recorder()).process_batched(
            stream, batch_size=batch_size)
        assert logical_events(result.telemetry["events"]) == reference
        assert any(e["kind"] == "drift_detected" for e in reference)

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_fleet_matches_sequential_logical_streams(self, workers):
        tasks = [FleetTask(stream_id=f"cam-{i}",
                           frames=drift_stream(40 + i,
                                               [(0.0, 70), (6.0, 70)]))
                 for i in range(3)]
        expected = {
            task.stream_id: logical_events(
                make_pipeline(seed=stream_seed(0, task.stream_id),
                              recorder=Recorder())
                .process_batched(task.frames, batch_size=16)
                .telemetry["events"])
            for task in tasks
        }
        executor = FleetExecutor(
            lambda task, seed: make_pipeline(seed=seed, recorder=Recorder()),
            workers=workers, batch_size=16)
        for task_result in executor.run(tasks):
            telemetry = task_result.result.telemetry
            assert (logical_events(telemetry["events"])
                    == expected[task_result.stream_id])


# ----------------------------------------------------------------------
# fleet-level merged telemetry
# ----------------------------------------------------------------------
class TestFleetTelemetry:
    def make_tasks(self):
        return [FleetTask(stream_id=f"cam-{i}",
                          frames=drift_stream(50 + i,
                                              [(0.0, 70), (6.0, 70)]))
                for i in range(3)]

    def run_fleet(self, workers: int):
        executor = FleetExecutor(
            lambda task, seed: make_pipeline(seed=seed, recorder=Recorder()),
            workers=workers, batch_size=16)
        return executor.run(self.make_tasks())

    def test_merged_summary_independent_of_worker_count(self):
        # the simulated clock makes even span timings deterministic, so the
        # merged documents are identical -- not merely logically equal
        reference = fleet_telemetry(self.run_fleet(0))
        TELEMETRY_SUMMARY.validate(reference)
        for workers in (1, 2):
            assert fleet_telemetry(self.run_fleet(workers)) == reference

    def test_no_recorder_means_no_fleet_telemetry(self):
        executor = FleetExecutor(
            lambda task, seed: make_pipeline(seed=seed), workers=0,
            batch_size=16)
        assert fleet_telemetry(executor.run(self.make_tasks())) is None


# ----------------------------------------------------------------------
# 3. golden snapshot
# ----------------------------------------------------------------------
class TestGoldenTelemetry:
    def test_canonical_drift_run_summary_is_pinned(self, golden):
        result = make_pipeline(seed=0, recorder=Recorder()).process(
            drift_stream())
        summary = result.telemetry["summary"]
        TELEMETRY_SUMMARY.validate(summary)
        assert summary["counters"]["pipeline.detections"] >= 1
        golden("pipeline_telemetry", summary)
