"""Drift Inspector (Algorithm 1): detection, calibration, bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.errors import ConfigurationError, EmptyReferenceError
from repro.sim.clock import SimulatedClock


def make_inspector(reference, **config_kwargs):
    config = DriftInspectorConfig(seed=42, **config_kwargs)
    return DriftInspector(reference, config=config)


class TestDetection:
    def test_detects_mean_shift_quickly(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        shifted = rng.normal(4.0, 1.0, size=(50, 4))
        delay = inspector.frames_to_detect(iter(shifted))
        assert delay is not None
        assert delay <= 10

    def test_detects_variance_collapse_in_high_dim(self, rng):
        """Points collapsing to the centre ('too conformal') must also be
        flagged -- the two-sided transform handles p-values near 1.  The
        effect needs enough dimensions: concentration of measure puts the
        reference points on a shell, so the centre is strictly closer to
        the bag than typical points are to each other."""
        reference = rng.normal(size=(240, 16))
        inspector = make_inspector(reference)
        collapsed = rng.normal(0.0, 0.01, size=(100, 16))
        delay = inspector.frames_to_detect(iter(collapsed))
        assert delay is not None

    def test_one_sided_misses_variance_collapse(self, rng):
        reference = rng.normal(size=(240, 16))
        inspector = make_inspector(reference, two_sided=False)
        collapsed = rng.normal(0.0, 0.01, size=(100, 16))
        assert inspector.frames_to_detect(iter(collapsed)) is None

    def test_no_false_positive_on_null_stream(self, gaussian_reference):
        for seed in (0, 1, 2):
            inspector = make_inspector(gaussian_reference)
            null = np.random.default_rng(seed).normal(size=(400, 4))
            assert inspector.frames_to_detect(iter(null)) is None

    def test_drift_frame_is_recorded(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        null = rng.normal(size=(30, 4))
        for frame in null:
            inspector.observe(frame)
        assert inspector.drift_frame is None
        shifted = rng.normal(5.0, 1.0, size=(20, 4))
        for frame in shifted:
            inspector.observe(frame)
        assert inspector.drift_detected
        assert inspector.drift_frame >= 30

    def test_drift_flag_sticks_until_reset(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        for frame in rng.normal(5.0, 1.0, size=(20, 4)):
            inspector.observe(frame)
        assert inspector.drift_detected
        # even a conformal frame keeps reporting drift
        decision = inspector.observe(np.zeros(4))
        assert decision.drift

    def test_frames_to_detect_respects_limit(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        null = rng.normal(size=(100, 4))
        assert inspector.frames_to_detect(iter(null), limit=10) is None
        assert inspector.frames_processed == 10


class TestReset:
    def test_reset_clears_state(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        for frame in rng.normal(5.0, 1.0, size=(20, 4)):
            inspector.observe(frame)
        inspector.reset()
        assert not inspector.drift_detected
        assert inspector.frames_processed == 0

    def test_reset_with_new_reference(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        new_reference = rng.normal(5.0, 1.0, size=(150, 4))
        inspector.reset(reference=new_reference)
        # the previously-drifting distribution is now the null
        shifted = rng.normal(5.0, 1.0, size=(200, 4))
        assert inspector.frames_to_detect(iter(shifted)) is None


class TestPlumbing:
    def test_monitor_generator_stops_on_drift(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        shifted = rng.normal(5.0, 1.0, size=(50, 4))
        decisions = list(inspector.monitor(iter(shifted)))
        assert decisions[-1].drift
        assert len(decisions) < 50

    def test_decision_fields_populated(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference)
        decision = inspector.observe(rng.normal(size=4))
        assert decision.frame_index == 0
        assert decision.nonconformity >= 0.0
        assert 0.0 < decision.p_value < 1.0

    def test_clock_charges_per_frame(self, rng, gaussian_reference):
        clock = SimulatedClock()
        inspector = DriftInspector(gaussian_reference,
                                   DriftInspectorConfig(seed=1), clock=clock)
        for frame in rng.normal(size=(10, 4)):
            inspector.observe(frame)
        counts = clock.operation_counts()
        assert counts["knn_nonconformity"] == 10
        assert counts["martingale_update"] == 10
        # no embedder: no VAE charge
        assert "vae_encode" not in counts

    def test_embedder_is_used_and_charged(self, rng, gaussian_reference):
        class ProjectingEmbedder:
            def embed(self, frames):
                return np.asarray(frames)[:, :4]

        clock = SimulatedClock()
        inspector = DriftInspector(gaussian_reference,
                                   DriftInspectorConfig(seed=1),
                                   embedder=ProjectingEmbedder(), clock=clock)
        inspector.observe(rng.normal(size=8))
        assert clock.operation_counts()["vae_encode"] == 1

    def test_reference_scores_length_mismatch_rejected(self, gaussian_reference):
        with pytest.raises(ConfigurationError):
            DriftInspector(gaussian_reference,
                           reference_scores=np.ones(3))

    def test_tiny_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            DriftInspector(np.zeros((1, 4)))

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"significance": 0.0}, {"significance": 1.0},
        {"k": 0},
        {"betting_epsilon": 0.0}, {"betting_epsilon": 1.0},
        {"betting_epsilon": -0.2}, {"p_floor": 0.0}, {"p_floor": 1.0},
        {"p_floor": 2.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DriftInspectorConfig(**kwargs)


class TestMartingaleVariants:
    """The multiplicative (Eq. 5 + Ville) and adaptive-betting variants."""

    def test_multiplicative_power_detects_fast(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference,
                                   martingale="multiplicative",
                                   significance=0.02)
        shifted = rng.normal(4.0, 1.0, size=(50, 4))
        delay = inspector.frames_to_detect(iter(shifted))
        assert delay is not None and delay <= 10

    def test_multiplicative_respects_ville_bound(self, gaussian_reference):
        """Eq. 4: P(S_n ever exceeds 1/r) <= r over the whole stream."""
        fired = 0
        for seed in range(8):
            inspector = DriftInspector(
                gaussian_reference,
                DriftInspectorConfig(seed=seed, martingale="multiplicative",
                                     significance=0.02))
            null = np.random.default_rng(seed).normal(size=(300, 4))
            fired += inspector.frames_to_detect(iter(null)) is not None
        assert fired <= 1

    def test_histogram_betting_with_additive_machine(self, rng,
                                                     gaussian_reference):
        inspector = make_inspector(gaussian_reference, betting="histogram")
        shifted = rng.normal(4.0, 1.0, size=(120, 4))
        assert inspector.frames_to_detect(iter(shifted)) is not None

    def test_mixture_betting_detects(self, rng, gaussian_reference):
        inspector = make_inspector(gaussian_reference, betting="mixture")
        shifted = rng.normal(4.0, 1.0, size=(120, 4))
        assert inspector.frames_to_detect(iter(shifted)) is not None

    def test_reset_rebuilds_stateful_betting(self, rng, gaussian_reference):
        """HistogramBetting carries state; reset must start fresh."""
        inspector = make_inspector(gaussian_reference, betting="histogram")
        for frame in rng.normal(4.0, 1.0, size=(60, 4)):
            inspector.observe(frame)
        inspector.reset()
        assert inspector.martingale.value == 0.0
        null = rng.normal(size=(100, 4))
        assert inspector.frames_to_detect(iter(null)) is None

    @pytest.mark.parametrize("kwargs", [
        {"martingale": "quantum"}, {"betting": "roulette"}])
    def test_invalid_variant_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DriftInspectorConfig(**kwargs)
