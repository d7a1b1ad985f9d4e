"""Property and unit tests for the tier-0 pixel-stat screen.

The statistics make exact claims -- bounded in ``[0, 1]``, exactly
``1.0`` on identical frames, bitwise symmetric, edge masks invariant to
a constant integer brightness offset -- so they are tested as exact
claims, not approximations.  The monitor computes them a chunk at a
time; its block statistics and rolling z-scores are pinned bit for bit
to the per-frame reference functions, and its batched path to
sequential observation (the property the kernel's optimistic rollback
relies on).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detectors.tier0 import (
    STAT_NAMES,
    PixelStatMonitor,
    edge_iou,
    edge_mask,
    gradient_magnitude,
    ssim_index,
)
from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    EmptyReferenceError,
)
from repro.testing import DIM, gaussian_stream, make_registry


@pytest.fixture(scope="module")
def bundle():
    return make_registry().get("low")


def _vector(seed: int, scale: float = 1.0) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, scale, size=DIM)


def _image(seed: int, side: int = 12) -> np.ndarray:
    """Integer-valued image: every gradient is exact in float64, so the
    offset-invariance claims hold bit for bit."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(side, side)).astype(np.float64)


class TestSsimProperties:
    @given(seed=st.integers(0, 2000), scale=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_on_latent_vectors(self, seed, scale):
        a = _vector(seed, scale)
        b = _vector(seed + 1, scale)
        assert 0.0 <= ssim_index(a, b) <= 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_bounded_on_images(self, seed):
        assert 0.0 <= ssim_index(_image(seed), _image(seed + 1)) <= 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_identical_frames_score_exactly_one(self, seed):
        a = _vector(seed)
        assert ssim_index(a, a) == 1.0
        img = _image(seed)
        assert ssim_index(img, img) == 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_symmetric(self, seed):
        a, b = _vector(seed), _vector(seed + 1)
        assert ssim_index(a, b) == ssim_index(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="equally-sized"):
            ssim_index(np.zeros(4), np.zeros(5))

    def test_empty_frames_rejected(self):
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            ssim_index(np.zeros(0), np.zeros(0))

    def test_constant_frames_well_defined(self):
        """Zero-span inputs hit the numerical floor, not a division by
        zero."""
        a = np.full(DIM, 3.0)
        assert ssim_index(a, a) == 1.0
        assert 0.0 <= ssim_index(a, np.full(DIM, 4.0)) <= 1.0


class TestEdgeProperties:
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_iou_bounded_symmetric_and_one_on_identity(self, seed):
        a, b = _image(seed), _image(seed + 1)
        score = edge_iou(a, b)
        assert 0.0 <= score <= 1.0
        assert edge_iou(b, a) == score
        assert edge_iou(a, a) == 1.0

    @given(seed=st.integers(0, 2000), offset=st.integers(-64, 64))
    @settings(max_examples=40, deadline=None)
    def test_mask_invariant_to_constant_integer_offset(self, seed, offset):
        """A constant shifts no gradient; on integer-valued frames the
        Sobel arithmetic is exact, so the mask -- and hence the IoU --
        is unchanged bit for bit."""
        a, b = _image(seed), _image(seed + 1)
        assert np.array_equal(edge_mask(a + offset), edge_mask(a))
        assert edge_iou(a + offset, b) == edge_iou(a, b)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_iou_on_latent_vectors_bounded(self, seed):
        a, b = _vector(seed), _vector(seed + 1)
        assert 0.0 <= edge_iou(a, b) <= 1.0

    def test_flat_frames_have_no_edges_and_agree(self):
        flat = np.full((8, 8), 7.0)
        assert not edge_mask(flat).any()
        assert edge_iou(flat, flat * 2.0) == 1.0

    def test_gradient_of_short_vector_is_zero(self):
        assert np.array_equal(gradient_magnitude(np.ones(1)), np.zeros(1))

    def test_gradient_collapses_channels(self):
        img = _image(3)
        stacked = np.repeat(img[..., None], 3, axis=-1)
        assert np.array_equal(gradient_magnitude(stacked),
                              gradient_magnitude(img))

    def test_gradient_rejects_higher_rank(self):
        with pytest.raises(DimensionMismatchError, match="1-D, 2-D or 3-D"):
            gradient_magnitude(np.zeros((2, 2, 2, 2)))

    def test_mask_tau_validated(self):
        with pytest.raises(ConfigurationError, match="tau"):
            edge_mask(_image(0), tau=0.0)
        with pytest.raises(ConfigurationError, match="tau"):
            edge_mask(_image(0), tau=1.5)

    def test_iou_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="equally-shaped"):
            edge_iou(np.zeros(4), np.zeros(6))


@st.composite
def _stacks(draw):
    """A reference sample and a frame stack of one shape: 1-D vectors of
    length 1, 2 or 6 (floats or integers) or 2-D integer images, with
    some rows made constant (flat)."""
    shape = draw(st.sampled_from([(1,), (2,), (6,), (4, 4), (3, 7), (1, 5)]))
    if len(shape) == 1 and draw(st.booleans()):
        elements = st.floats(-1e3, 1e3, allow_subnormal=False)
    else:
        elements = st.integers(0, 255).map(float)

    def sample(rows):
        arr = draw(hnp.arrays(np.float64, (rows,) + shape,
                              elements=elements))
        flat = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        for row, is_flat in zip(arr, flat):
            if is_flat:
                row[...] = row.flat[0]
        return arr

    return sample(draw(st.integers(5, 8))), sample(draw(st.integers(1, 6)))


def _oracle_zscores(reference, frames, smoothing=8):
    """The monitor's z-scores recomputed frame by frame from the reference
    functions: one deque per statistic, ``np.mean`` over it."""
    ref_frame = np.asarray(reference, dtype=np.float64).mean(axis=0)

    def stats(frame):
        return (ssim_index(frame, ref_frame), edge_iou(frame, ref_frame),
                float(frame.mean()), float(frame.var()))

    samples = list(zip(*[stats(row) for row in reference]))
    mus = [float(np.mean(values)) for values in samples]
    sigmas = [float(max(np.std(values), 1e-9)) for values in samples]
    windows = [deque(maxlen=smoothing) for _ in STAT_NAMES]
    expected = []
    for frame in frames:
        zscores = {}
        for name, window, value, mu, sigma in zip(
                STAT_NAMES, windows, stats(frame), mus, sigmas):
            window.append(value)
            scale = sigma / float(np.sqrt(len(window)))
            zscores[name] = (float(np.mean(window)) - mu) / scale
        expected.append(zscores)
    return expected


class TestBlockStatistics:
    @given(data=_stacks())
    @settings(max_examples=80, deadline=None)
    def test_block_stats_equal_the_reference_functions(self, data):
        """Row by row, bit for bit: ``ssim_index``, ``edge_iou``,
        ``mean`` and ``var`` of each frame against the reference frame."""
        reference, stack = data
        monitor = PixelStatMonitor(reference)
        block = monitor.block_stats(stack)
        assert block.shape == (len(STAT_NAMES), len(stack))
        for k, frame in enumerate(stack):
            expected = np.array([
                ssim_index(frame, monitor.reference_frame),
                edge_iou(frame, monitor.reference_frame),
                frame.mean(), frame.var()])
            assert expected.tobytes() == block[:, k].tobytes()

    @pytest.mark.parametrize("batch", [1, 16])
    def test_window_means_sum_in_np_mean_order(self, bundle, batch):
        """A full window's mean must be summed in the order ``np.mean``
        sums one window.  Gathering the windows with ``seq[:, idx]``
        returns a non-C-contiguous stack that numpy sums in another
        order, moving z-scores in the last bit from frame 7 on; the
        ``np.ascontiguousarray`` in the monitor is what this pins."""
        frames = gaussian_stream(0, [(0.0, 60), (6.0, 60)])
        monitor = PixelStatMonitor(bundle.sigma)
        zscores = []
        for start in range(0, len(frames), batch):
            zscores.extend(decision.zscores for decision in
                           monitor.observe_batch(frames[start:start + batch]))
        assert zscores == _oracle_zscores(bundle.sigma, frames)

    def test_ssim_constants_square_like_python(self):
        """``ssim_index`` squares ``0.03 * span`` with Python's ``**`` (C
        ``pow``); at span 1599.5 that differs from ``x * x`` -- numpy's
        square -- in the last bit, and the block path must follow."""
        span = 1599.5
        assert (0.03 * span) ** 2 != (0.03 * span) * (0.03 * span)
        reference = np.zeros((5, 2))
        reference[0, 0] = 1e-3
        monitor = PixelStatMonitor(reference)
        frame = np.array([0.0, span])
        assert monitor.block_stats(frame[None])[0, 0] == \
            ssim_index(frame, monitor.reference_frame)

    def test_frames_of_another_shape_rejected(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        with pytest.raises(DimensionMismatchError, match="frames shaped"):
            monitor.observe(np.zeros(DIM + 1))
        with pytest.raises(DimensionMismatchError, match="frames shaped"):
            monitor.observe_batch(np.zeros((3, 2, DIM)))


class TestMonitorConstruction:
    def test_reference_must_be_a_sample(self, bundle):
        with pytest.raises(EmptyReferenceError, match="N>=5"):
            PixelStatMonitor(np.zeros(DIM))
        with pytest.raises(EmptyReferenceError, match="N>=5"):
            PixelStatMonitor(bundle.sigma[:3])

    def test_knobs_validated(self, bundle):
        with pytest.raises(ConfigurationError, match="smoothing"):
            PixelStatMonitor(bundle.sigma, smoothing=0)
        with pytest.raises(ConfigurationError, match="drift_z"):
            PixelStatMonitor(bundle.sigma, drift_z=0.0)
        with pytest.raises(ConfigurationError, match="drift_confirm"):
            PixelStatMonitor(bundle.sigma, drift_confirm=0)


class TestMonitorBehaviour:
    def test_stationary_stream_stays_quiet(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(5, [(0.0, 240)]):
            monitor.observe(frame)
        assert not monitor.drift_detected
        assert monitor.drift_frame is None
        assert monitor.frames_seen == 240

    def test_shifted_stream_latches_after_onset(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = [monitor.observe(frame) for frame in
                     gaussian_stream(5, [(0.0, 120), (6.0, 120)])]
        assert monitor.drift_detected
        assert monitor.drift_frame >= 120
        # the latch is sticky: every decision after it reports drift
        assert all(d.drift for d in decisions[monitor.drift_frame:])
        assert all(set(d.zscores) == set(STAT_NAMES) for d in decisions)

    def test_suspicion_rises_after_onset(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = [monitor.observe(frame) for frame in
                     gaussian_stream(7, [(0.0, 120), (6.0, 120)])]
        pre = max(d.suspicion for d in decisions[:120])
        post = max(d.suspicion for d in decisions[120:])
        assert post > pre
        assert all(d.suspicion >= 0.0 for d in decisions)

    def test_reset_rearms(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(5, [(0.0, 60), (6.0, 60)]):
            monitor.observe(frame)
        assert monitor.drift_detected
        monitor.reset()
        assert not monitor.drift_detected
        assert monitor.frames_seen == 0
        assert monitor.state_dict()["streak"] == 0
        assert all(not window for window in
                   monitor.state_dict()["windows"].values())

    def test_peek_suspicion_touches_no_state(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(9, [(0.0, 40)]):
            monitor.observe(frame)
        before = monitor.state_dict()
        calm = monitor.peek_suspicion(gaussian_stream(1, [(0.0, 1)])[0])
        wild = monitor.peek_suspicion(gaussian_stream(1, [(9.0, 1)])[0])
        assert monitor.state_dict() == before
        assert wild > calm >= 0.0


class TestMonitorSnapshotAndBatch:
    @given(seed=st.integers(0, 500), split=st.integers(1, 119),
           batch=st.sampled_from([1, 3, 16, 240]))
    @settings(max_examples=15, deadline=None)
    def test_batched_and_restored_runs_are_bit_identical(self, seed, split,
                                                         batch, bundle):
        frames = gaussian_stream(seed, [(0.0, 60), (6.0, 60)])
        sequential = PixelStatMonitor(bundle.sigma)
        seq_decisions = [sequential.observe(frame) for frame in frames]

        batched = PixelStatMonitor(bundle.sigma)
        batch_decisions = []
        for start in range(0, len(frames), batch):
            batch_decisions.extend(
                batched.observe_batch(frames[start:start + batch]))
        assert batch_decisions == seq_decisions
        assert batched.state_dict() == sequential.state_dict()

        resumed = PixelStatMonitor(bundle.sigma)
        prefix = [resumed.observe(frame) for frame in frames[:split]]
        restored = PixelStatMonitor(bundle.sigma)
        restored.load_state_dict(resumed.state_dict())
        tail = [restored.observe(frame) for frame in frames[split:]]
        assert prefix + tail == seq_decisions
        assert restored.state_dict() == sequential.state_dict()

    def test_single_frame_promoted_to_batch_of_one(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = monitor.observe_batch(gaussian_stream(2, [(0.0, 1)])[0])
        assert len(decisions) == 1
        assert monitor.frames_seen == 1
