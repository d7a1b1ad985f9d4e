"""Nonconformity measures: correctness, vectorisation, edge cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.nonconformity import KNNDistance, MahalanobisDistance, MeanDistance
from repro.errors import ConfigurationError, DimensionMismatchError, EmptyReferenceError


#: Coordinates with signed zeros, infinities and NaN beside ordinary values.
_coords = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                    st.floats(-1e6, 1e6))


def _mean_oracle(point, reference, k):
    """The expression :meth:`KNNDistance.score` replaced."""
    dists = np.sqrt(((reference - point) ** 2).sum(axis=1))
    k = min(k, dists.shape[0])
    return float(np.partition(dists, k - 1)[:k].mean())


@given(reference=arrays(np.float64,
                        st.tuples(st.integers(1, 12), st.integers(1, 4)),
                        elements=_coords),
       k=st.integers(1, 8), data=st.data())
@settings(max_examples=200, deadline=None)
def test_knn_score_matches_mean_oracle(reference, k, data):
    """``np.add.reduce`` and an in-place partition give the bits of the
    ``sum``/``partition``/``mean`` expression, duplicates, fewer points
    than ``K`` and non-finite coordinates included.  Dividing by the
    configured ``K`` when the reference has fewer points fails this."""
    point = data.draw(arrays(np.float64, reference.shape[1],
                             elements=_coords))
    if data.draw(st.booleans()):
        point = reference[0].copy()  # a point at zero distance
    with np.errstate(invalid="ignore", over="ignore"):
        got = KNNDistance(k).score(point, reference)
        expected = _mean_oracle(point, reference, k)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestKNNDistance:
    def test_score_matches_manual_computation(self):
        reference = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        measure = KNNDistance(k=2)
        # nearest two to (0,0): itself-like (0,0) at 0 and (1,0)/(0,1) at 1
        score = measure.score(np.array([0.0, 0.0]), reference)
        assert score == pytest.approx((0.0 + 1.0) / 2)

    def test_score_with_k_larger_than_reference_uses_all(self):
        reference = np.array([[0.0], [2.0]])
        measure = KNNDistance(k=10)
        score = measure.score(np.array([1.0]), reference)
        assert score == pytest.approx(1.0)

    def test_far_point_scores_higher_than_near_point(self, gaussian_reference):
        measure = KNNDistance(k=5)
        near = measure.score(np.zeros(4), gaussian_reference)
        far = measure.score(np.full(4, 10.0), gaussian_reference)
        assert far > near

    def test_reference_scores_match_leave_one_out_loop(self, rng):
        reference = rng.normal(size=(30, 3))
        measure = KNNDistance(k=4)
        fast = measure.reference_scores(reference)
        slow = np.array([
            measure.score(reference[i], np.delete(reference, i, axis=0))
            for i in range(30)
        ])
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KNNDistance(k=0)

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            KNNDistance().score(np.array([1.0]), np.empty((0, 1)))

    def test_dimension_mismatch_rejected(self, gaussian_reference):
        with pytest.raises(DimensionMismatchError):
            KNNDistance().score(np.zeros(7), gaussian_reference)

    def test_reference_scores_need_two_points(self):
        with pytest.raises(EmptyReferenceError):
            KNNDistance().reference_scores(np.array([[1.0, 2.0]]))

    @given(points=arrays(np.float64, (12, 3),
                         elements=st.floats(-50, 50)))
    @settings(max_examples=25, deadline=None)
    def test_scores_are_non_negative(self, points):
        measure = KNNDistance(k=3)
        scores = measure.reference_scores(points)
        assert (scores >= 0).all()

    def test_score_invariant_to_reference_order(self, rng):
        reference = rng.normal(size=(20, 2))
        point = rng.normal(size=2)
        measure = KNNDistance(k=3)
        shuffled = reference[rng.permutation(20)]
        assert measure.score(point, reference) == pytest.approx(
            measure.score(point, shuffled))


class TestMeanDistance:
    def test_score_is_mean_of_distances(self):
        reference = np.array([[0.0], [2.0], [4.0]])
        score = MeanDistance().score(np.array([0.0]), reference)
        assert score == pytest.approx((0 + 2 + 4) / 3)

    def test_reference_scores_match_loop(self, rng):
        reference = rng.normal(size=(15, 2))
        measure = MeanDistance()
        fast = measure.reference_scores(reference)
        slow = np.array([
            measure.score(reference[i], np.delete(reference, i, axis=0))
            for i in range(15)
        ])
        np.testing.assert_allclose(fast, slow, rtol=1e-9)


class TestMahalanobisDistance:
    def test_centre_scores_near_zero(self, gaussian_reference):
        measure = MahalanobisDistance()
        centre = gaussian_reference.mean(axis=0)
        assert measure.score(centre, gaussian_reference) < 0.5

    def test_outlier_scores_high(self, gaussian_reference):
        measure = MahalanobisDistance()
        assert measure.score(np.full(4, 8.0), gaussian_reference) > 5.0

    def test_scale_invariance(self, rng):
        """Mahalanobis should be unchanged by axis scaling."""
        reference = rng.normal(size=(300, 2))
        point = np.array([2.0, 1.0])
        measure = MahalanobisDistance()
        base = measure.score(point, reference)
        scaled_ref = reference * np.array([10.0, 0.1])
        scaled_point = point * np.array([10.0, 0.1])
        scaled = MahalanobisDistance().score(scaled_point, scaled_ref)
        assert scaled == pytest.approx(base, rel=0.05)

    def test_reference_scores_shape(self, gaussian_reference):
        scores = MahalanobisDistance().reference_scores(gaussian_reference)
        assert scores.shape == (200,)
        assert (scores >= 0).all()

    def test_invalid_regularization(self):
        with pytest.raises(ConfigurationError):
            MahalanobisDistance(regularization=0.0)

    def test_single_point_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            MahalanobisDistance().score(np.zeros(2), np.zeros((1, 2)))
