"""CascadeMonitor and EscalationPolicy contracts.

The contracts pinned here:

- the escalation policy is a deterministic threshold + window +
  hysteresis-cooldown machine and a bit-exact Snapshotable participant;
- the cascade satisfies ``DriftMonitor`` over any two tiers, charges the
  simulated clock per tier, and defers the drift verdict to tier 1;
- ``observe_batch`` / ``supports_rollback`` are advertised exactly when
  *both* tiers qualify -- a cascade over ODIN falls back to the kernel's
  per-frame path and still reproduces batched results bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascade import (
    TIER0_OPS,
    TIER1_OPS,
    CascadeDecision,
    CascadeMonitor,
    EscalationPolicy,
)
from repro.detectors import zoo
from repro.detectors.tier0 import PixelStatMonitor
from repro.errors import CascadeError, CheckpointError, ConfigurationError
from repro.obs.recorder import Recorder, logical_events
from repro.runtime import MonitorStage
from repro.sim.clock import SimulatedClock
from repro.sim.costs import PAPER_COSTS
from repro.testing import (
    gaussian_stream,
    make_pipeline,
    make_registry,
    result_sig,
)

DRIFT_SEGMENTS = [(0.0, 120), (6.0, 120)]


@pytest.fixture(scope="module")
def bundle():
    return make_registry().get("low")


def make_cascade(bundle, tier1="inspector", **policy_knobs):
    policy = EscalationPolicy(**policy_knobs) if policy_knobs else None
    return CascadeMonitor(PixelStatMonitor(bundle.sigma),
                          zoo.build(tier1, bundle), policy=policy)


class TestEscalationPolicyMachine:
    def test_knobs_validated(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            EscalationPolicy(threshold=0.0)
        with pytest.raises(ConfigurationError, match="window"):
            EscalationPolicy(window=0)
        with pytest.raises(ConfigurationError, match="cooldown"):
            EscalationPolicy(cooldown=-1)

    def test_below_threshold_never_escalates(self):
        policy = EscalationPolicy(threshold=3.5)
        assert not any(policy.decide(3.4) for _ in range(100))
        assert not policy.escalated

    def test_breach_escalates_itself_plus_window(self):
        policy = EscalationPolicy(threshold=3.5, window=3, cooldown=2)
        decisions = [policy.decide(s) for s in
                     [5.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        # the breaching frame and the next `window` frames go to tier 1
        assert decisions == [True, True, True, True, False, False]

    def test_breach_inside_window_refreshes_it(self):
        policy = EscalationPolicy(threshold=3.5, window=2, cooldown=0)
        sticky = [policy.decide(s) for s in [5.0, 0.0, 5.0, 0.0, 0.0, 0.0]]
        # the frame-2 re-breach restarts the window: escalation runs to
        # frame 4 instead of draining at frame 2
        assert sticky == [True, True, True, True, True, False]

    def test_cooldown_ignores_breaches_then_rearms(self):
        policy = EscalationPolicy(threshold=3.5, window=1, cooldown=3)
        assert [policy.decide(s) for s in
                [5.0, 0.0, 5.0, 5.0, 5.0, 5.0]] == \
            [True, True, False, False, False, True]

    def test_zero_cooldown_rearms_immediately(self):
        policy = EscalationPolicy(threshold=3.5, window=1, cooldown=0)
        assert [policy.decide(s) for s in [5.0, 0.0, 5.0]] == \
            [True, True, True]

    def test_state_roundtrip_is_bit_exact(self):
        suspicions = [5.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 5.0, 0.0]
        reference = EscalationPolicy(window=2, cooldown=2)
        expected = [reference.decide(s) for s in suspicions]
        driven = EscalationPolicy(window=2, cooldown=2)
        head = [driven.decide(s) for s in suspicions[:4]]
        restored = EscalationPolicy(window=2, cooldown=2)
        restored.load_state_dict(driven.state_dict())
        tail = [restored.decide(s) for s in suspicions[4:]]
        assert head + tail == expected
        assert restored.state_dict() == reference.state_dict()

    def test_reset_clears_window_and_cooldown(self):
        policy = EscalationPolicy(window=4, cooldown=4)
        policy.decide(99.0)
        policy.reset()
        assert policy.state_dict() == {"window_left": 0, "cooldown_left": 0}
        assert not policy.escalated


class TestCascadeMonitor:
    def test_tiers_must_be_drift_monitors(self, bundle):
        inspector = zoo.build("inspector", bundle)
        with pytest.raises(CascadeError, match="tier0"):
            CascadeMonitor(object(), inspector)
        with pytest.raises(CascadeError, match="tier1"):
            CascadeMonitor(PixelStatMonitor(bundle.sigma), object())

    def test_tier1_is_the_drift_authority(self, bundle):
        cascade = make_cascade(bundle)
        decisions = [cascade.observe(frame) for frame in
                     gaussian_stream(0, DRIFT_SEGMENTS)]
        assert all(isinstance(d, CascadeDecision) for d in decisions)
        assert cascade.drift_detected
        assert cascade.drift_frame >= 120
        # tier 0 alone never latched: the verdict came from tier 1
        assert decisions[cascade.drift_frame].escalated

    def test_stationary_stream_escalates_rarely(self, bundle):
        cascade = make_cascade(bundle)
        frames = gaussian_stream(0, [(0.0, 240)])
        for frame in frames:
            cascade.observe(frame)
        assert not cascade.drift_detected
        assert cascade.frames_seen == 240
        assert cascade.frames_escalated <= 0.2 * len(frames)
        assert cascade.escalations <= 3

    def test_clock_charged_per_tier(self, bundle):
        clock = SimulatedClock(PAPER_COSTS)
        cascade = CascadeMonitor(PixelStatMonitor(bundle.sigma),
                                 zoo.build("inspector", bundle),
                                 clock=clock)
        tier0_ms = sum(PAPER_COSTS.cost(op) for op in TIER0_OPS)
        tier1_ms = sum(PAPER_COSTS.cost(op) for op in TIER1_OPS)
        quiet = gaussian_stream(0, [(0.0, 1)])[0]
        loud = gaussian_stream(0, [(30.0, 1)])[0]
        cascade.observe(quiet)
        assert clock.elapsed_ms == pytest.approx(tier0_ms)
        decision = cascade.observe(loud)
        assert decision.escalated
        assert clock.elapsed_ms == pytest.approx(2 * tier0_ms + tier1_ms)

    def test_recorder_carries_escalation_accounting(self, bundle):
        recorder = Recorder()
        cascade = CascadeMonitor(PixelStatMonitor(bundle.sigma),
                                 zoo.build("inspector", bundle),
                                 recorder=recorder)
        for frame in gaussian_stream(0, DRIFT_SEGMENTS):
            cascade.observe(frame)
        assert recorder.counter("cascade.frames").value == 240
        assert recorder.counter("cascade.escalated_frames").value == \
            cascade.frames_escalated
        openings = [event for event in logical_events(recorder.events)
                    if event["kind"] == "cascade.escalated"]
        assert len(openings) == cascade.escalations >= 1
        assert all(event["suspicion"] >= 0.0 for event in openings)

    def test_bool_only_tier0_degrades_to_flag_escalation(self, bundle):
        class FlagScreen:
            """DriftMonitor speaking plain bools, no suspicion."""

            def __init__(self):
                self._seen = 0
                self._drift_frame = None

            @property
            def drift_detected(self):
                return self._drift_frame is not None

            @property
            def drift_frame(self):
                return self._drift_frame

            def observe(self, frame):
                flagged = float(np.mean(frame)) > 3.0
                if flagged and self._drift_frame is None:
                    self._drift_frame = self._seen
                self._seen += 1
                return flagged

            def reset(self):
                self._seen = 0
                self._drift_frame = None

        cascade = CascadeMonitor(FlagScreen(),
                                 zoo.build("inspector", bundle))
        quiet_frame = gaussian_stream(0, [(0.0, 1)])[0]
        quiet = cascade.observe(quiet_frame)
        assert (quiet.escalated, quiet.suspicion) == (False, 0.0)
        loud = cascade.observe(gaussian_stream(0, [(30.0, 1)])[0])
        # a raised flag counts as exactly threshold-level suspicion
        assert loud.escalated
        assert loud.suspicion == cascade.policy.threshold
        # no peek either: the serving screen is simply absent
        assert cascade.peek_suspicion(quiet_frame) is None
        # and a bool-only tier cannot be checkpointed
        with pytest.raises(CheckpointError, match="tier0"):
            cascade.state_dict()

    def test_peek_suspicion_delegates_to_tier0(self, bundle):
        cascade = make_cascade(bundle)
        frame = gaussian_stream(3, [(4.0, 1)])[0]
        assert cascade.peek_suspicion(frame) == \
            cascade.tier0.peek_suspicion(frame)

    def test_reset_rearms_both_tiers(self, bundle):
        cascade = make_cascade(bundle)
        for frame in gaussian_stream(0, DRIFT_SEGMENTS):
            cascade.observe(frame)
        assert cascade.drift_detected
        cascade.reset()
        assert not cascade.drift_detected
        assert cascade.frames_seen == 0
        assert cascade.frames_escalated == 0
        assert cascade.escalations == 0
        assert not cascade.tier0.drift_detected
        assert not cascade.tier1.drift_detected
        assert not cascade.policy.escalated

    @pytest.mark.parametrize("split", [40, 130])
    def test_state_roundtrip_is_bit_exact(self, bundle, split):
        frames = gaussian_stream(0, DRIFT_SEGMENTS)
        reference = make_cascade(bundle)
        expected = [reference.observe(frame) for frame in frames]

        driven = make_cascade(bundle)
        head = [driven.observe(frame) for frame in frames[:split]]
        restored = make_cascade(bundle)
        restored.load_state_dict(driven.state_dict())
        tail = [restored.observe(frame) for frame in frames[split:]]
        assert head + tail == expected
        assert restored.state_dict() == reference.state_dict()


class TestRollbackAdvertisement:
    def test_qualifying_tiers_bind_observe_batch(self, bundle):
        cascade = make_cascade(bundle)
        assert callable(cascade.observe_batch)
        assert MonitorStage(cascade).supports_rollback
        assert zoo.get_spec("cascade-di").rollback

    @given(seed=st.integers(0, 500),
           segments=st.sampled_from([DRIFT_SEGMENTS,
                                     [(0.0, 100), (1.5, 140)],
                                     [(0.0, 50), (3.0, 40), (0.0, 150)]]))
    @settings(max_examples=8, deadline=None)
    def test_batched_observation_is_bit_identical(self, bundle, seed,
                                                  segments):
        """Block screening at any split advances everything a frame loop
        advances: decisions, state, the clock ledger, and the recorder's
        logical events, counters and histograms."""
        frames = gaussian_stream(seed, segments)

        def run(split):
            clock = SimulatedClock(PAPER_COSTS)
            recorder = Recorder(clock=clock)
            cascade = CascadeMonitor(PixelStatMonitor(bundle.sigma),
                                     zoo.build("inspector", bundle),
                                     clock=clock, recorder=recorder)
            if split is None:
                decisions = [cascade.observe(frame) for frame in frames]
            else:
                decisions = []
                for start in range(0, len(frames), split):
                    decisions.extend(
                        cascade.observe_batch(frames[start:start + split]))
            return (decisions, cascade.state_dict(), clock.state_dict(),
                    logical_events(recorder.events),
                    recorder.metrics.snapshot())

        sequential = run(None)
        assert sequential[1]["frames_escalated"] > 0
        for split in (1, 3, 16, 64):
            assert run(split) == sequential

    def test_cascade_over_odin_refuses_observe_batch(self, bundle):
        """ODIN has no certified snapshot-replay semantics, so a cascade
        wrapping it must not advertise one on its behalf."""
        cascade = make_cascade(bundle, tier1="odin")
        assert not hasattr(cascade, "observe_batch")
        assert not MonitorStage(cascade).supports_rollback

    def test_cascade_over_odin_takes_the_per_frame_fallback(self, bundle):
        """Regression for satellite (f): the kernel must drive a
        non-rollback cascade frame by frame, and batched processing must
        still be bit-identical to sequential processing."""
        frames = gaussian_stream(0, DRIFT_SEGMENTS)

        def factory(b):
            return CascadeMonitor(PixelStatMonitor(b.sigma),
                                  zoo.build("odin", b))

        sequential = make_pipeline(0, monitor_factory=factory)
        batched = make_pipeline(0, monitor_factory=factory)
        assert not batched.kernel.monitor.supports_rollback
        assert result_sig(sequential.process(frames)) == \
            result_sig(batched.process_batched(frames, batch_size=16))
