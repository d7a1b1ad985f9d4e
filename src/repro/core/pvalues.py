"""Conformal p-values (paper Eq. 1-2).

Given precomputed reference nonconformity scores ``A_i`` and the score
``a_f`` of a new observation, the (smoothed) conformal p-value is

    p = ( |{i : A_i > a_f}| + U * |{i : A_i == a_f}| ) / n

with ``U ~ Uniform[0, 1]`` breaking ties.  Under exchangeability the
p-values are i.i.d. uniform on [0, 1] (Theorem 4.1), which is the property
the martingale tests exploit.

Note the orientation: the paper counts reference scores *greater* than the
new score, so a very strange frame (large ``a_f``) gets a p-value near 0.

:func:`conformal_pvalue` and :func:`conformal_pvalues_batch` count by
comparing against every ``A_i`` and are the reference implementations.
:class:`PValueCalculator`, which the Drift Inspector runs, counts by binary
search over ``A_i`` sorted once (:class:`SortedScores`) and returns the same
bits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Union

import numpy as np

from repro.errors import EmptyReferenceError
from repro.rng import SeedLike, ensure_rng


def conformal_pvalue(reference_scores: np.ndarray, score: float,
                     rng: Optional[np.random.Generator] = None,
                     tie_tolerance: float = 0.0,
                     include_self: bool = True) -> float:
    """Smoothed conformal p-value of ``score`` against ``reference_scores``.

    Eq. 1's index ``i`` runs over all ``n`` observations *including* the new
    one, so with ``include_self=True`` (the default and the theoretically
    exact form) the new observation contributes ``U`` to the numerator and
    one to the denominator.  This keeps p strictly inside ``(0, 1)`` --
    without it, a score exceeding every reference score yields exactly 0 with
    probability ``1/(n+1)``, a point mass that breaks uniformity and inflates
    the martingale's false-positive rate.

    ``tie_tolerance`` treats scores within that absolute distance as equal,
    which matters when scores come from floating-point distance pipelines.
    """
    ref = np.asarray(reference_scores, dtype=np.float64).reshape(-1)
    if ref.shape[0] == 0:
        raise EmptyReferenceError("reference score list A_i is empty")
    if tie_tolerance > 0:
        greater = int((ref > score + tie_tolerance).sum())
        equal = int((np.abs(ref - score) <= tie_tolerance).sum())
    else:
        greater = int((ref > score).sum())
        equal = int((ref == score).sum())
    u = float(ensure_rng(rng).uniform()) if rng is not None else float(
        np.random.default_rng().uniform())
    if include_self:
        return (greater + u * (equal + 1)) / (ref.shape[0] + 1)
    return (greater + u * equal) / ref.shape[0]


def conformal_pvalues_batch(reference_scores: np.ndarray, scores: np.ndarray,
                            rng: Optional[np.random.Generator] = None,
                            tie_tolerance: float = 0.0,
                            include_self: bool = True) -> np.ndarray:
    """Smoothed conformal p-values for a 1-D array of scores.

    Bit-identical to calling :func:`conformal_pvalue` once per score with
    the same generator: the greater/equal counts are computed by row-wise
    broadcasting (each row performs the scalar path's comparisons), and the
    tie-breaking uniforms are drawn as one block -- numpy generators consume
    the underlying bit stream identically whether uniforms are requested one
    at a time or as an array.
    """
    ref = np.asarray(reference_scores, dtype=np.float64).reshape(-1)
    if ref.shape[0] == 0:
        raise EmptyReferenceError("reference score list A_i is empty")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0:
        return np.empty(0, dtype=np.float64)
    if tie_tolerance > 0:
        greater = (ref[None, :] > s[:, None] + tie_tolerance).sum(axis=1)
        equal = (np.abs(ref[None, :] - s[:, None])
                 <= tie_tolerance).sum(axis=1)
    else:
        greater = (ref[None, :] > s[:, None]).sum(axis=1)
        equal = (ref[None, :] == s[:, None]).sum(axis=1)
    generator = ensure_rng(rng) if rng is not None else np.random.default_rng()
    us = generator.uniform(size=s.shape[0])
    if include_self:
        return (greater + us * (equal + 1)) / (ref.shape[0] + 1)
    return (greater + us * equal) / ref.shape[0]


class SortedScores:
    """Calibration scores ``A_i`` sorted once, for binary-search counting.

    Holds the scores in ascending order twice -- as a read-only array for
    :func:`numpy.searchsorted` and as a tuple for :mod:`bisect` -- plus
    ``n``, the number of scores.  A NaN score never compares greater or
    equal, so NaNs count in ``n`` only and are left out of the sorted
    sequences.  Immutable: one instance is built per calibration (see
    :meth:`~repro.core.selection.registry.ModelBundle.sorted_scores`) and
    shared by every calculator against it.
    """

    __slots__ = ("n", "array", "values")

    def __init__(self, reference_scores: np.ndarray) -> None:
        ref = np.asarray(reference_scores, dtype=np.float64).reshape(-1)
        if ref.shape[0] == 0:
            raise EmptyReferenceError("reference score list A_i is empty")
        ordered = np.sort(ref[~np.isnan(ref)])
        ordered.flags.writeable = False
        self.n = ref.shape[0]
        self.array = ordered
        self.values = tuple(ordered.tolist())

    def __len__(self) -> int:
        return self.n


class PValueCalculator:
    """Stateful p-value calculator bound to one reference score list.

    Counts ``|{i : A_i > a}|`` and ``|{i : A_i == a}|`` by binary search
    over the sorted scores -- :func:`bisect.bisect_right` /
    :func:`~bisect.bisect_left` for one score, :func:`numpy.searchsorted`
    for a batch -- instead of comparing against every ``A_i``.  The counts
    are the integers :func:`conformal_pvalue` computes, and the
    tie-breaking uniforms come from the same generator positions, so every
    p-value is bit-identical to the reference functions'.
    ``reference_scores`` is the raw ``A_i`` or a shared
    :class:`SortedScores`.  Owns its RNG so repeated calls produce a
    reproducible stream of tie-breaking uniforms.
    """

    def __init__(self, reference_scores: Union[np.ndarray, SortedScores],
                 seed: SeedLike = None) -> None:
        self.scores = (reference_scores
                       if isinstance(reference_scores, SortedScores)
                       else SortedScores(reference_scores))
        self._rng = ensure_rng(seed)

    def __call__(self, score: float) -> float:
        values = self.scores.values
        right = bisect_right(values, score)
        # a NaN score sorts past every value but equals none of them
        equal = right - bisect_left(values, score) if score == score else 0
        # random() is uniform(0, 1): the same draw, without its overhead
        u = self._rng.random()
        return (len(values) - right + u * (equal + 1)) / (self.scores.n + 1)

    def batch(self, scores: np.ndarray) -> np.ndarray:
        """P-values for an array of scores; consumes the tie-breaking
        uniform stream exactly as repeated scalar calls would."""
        s = np.asarray(scores, dtype=np.float64).reshape(-1)
        ordered = self.scores.array
        # searchsorted orders NaN last, so a NaN score counts no ties
        right = ordered.searchsorted(s, side="right")
        equal = right - ordered.searchsorted(s, side="left")
        us = self._rng.random(s.shape[0])
        return ((ordered.shape[0] - right + us * (equal + 1))
                / (self.scores.n + 1))

    def rng_state(self) -> dict:
        """The tie-breaking generator's bit-generator state (JSON-safe)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`rng_state`, so the uniform
        stream resumes exactly where a checkpointed session left off."""
        self._rng.bit_generator.state = state
