"""Nonconformity measures (paper Section 4).

A nonconformity measure maps ``(f, S)`` to a real score: the larger the
score, the stranger frame ``f`` is relative to the reference sample ``S``.
The paper adopts the average Euclidean distance of ``f`` to its ``K``
nearest neighbours in ``Sigma_T`` (:class:`KNNDistance`); alternatives are
provided for ablation.

Every measure exposes:

- ``score(point, reference)`` -- the score of one new point against a
  reference set.
- ``reference_scores(reference)`` -- the leave-one-out precomputed ``A_i``
  scores of the reference points themselves (Algorithm 1's ``A_i`` input).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, EmptyReferenceError


def _check_reference(reference: np.ndarray) -> np.ndarray:
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2:
        raise DimensionMismatchError(
            f"reference must be (N, D), got shape {ref.shape}")
    if ref.shape[0] == 0:
        raise EmptyReferenceError("reference set Sigma_T is empty")
    return ref


def _check_point(point: np.ndarray, dim: int) -> np.ndarray:
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != dim:
        raise DimensionMismatchError(
            f"point has dim {p.shape[0]}, reference has dim {dim}")
    return p


def _check_points(points: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"points must be (B, {dim}), got shape {pts.shape}")
    return pts


class NonconformityMeasure:
    """Base class: ``score`` one point, or precompute ``reference_scores``."""

    def score(self, point: np.ndarray, reference: np.ndarray) -> float:
        raise NotImplementedError

    def score_batch(self, points: np.ndarray,
                    reference: np.ndarray) -> np.ndarray:
        """Scores for a ``(B, D)`` stack of points against ``reference``.

        The default walks the scalar path row by row (always bit-identical);
        subclasses override it with broadcast evaluation where the
        vectorized arithmetic provably matches the scalar path.
        """
        ref = _check_reference(reference)
        pts = _check_points(points, ref.shape[1])
        return np.asarray([self.score(p, ref) for p in pts],
                          dtype=np.float64)

    def reference_scores(self, reference: np.ndarray) -> np.ndarray:
        """Leave-one-out scores of each reference point vs the rest."""
        ref = _check_reference(reference)
        n = ref.shape[0]
        if n < 2:
            raise EmptyReferenceError(
                "need at least 2 reference points for leave-one-out scores")
        scores = np.empty(n)
        for i in range(n):
            rest = np.delete(ref, i, axis=0)
            scores[i] = self.score(ref[i], rest)
        return scores


class KNNDistance(NonconformityMeasure):
    """Average Euclidean distance to the ``K`` nearest reference points.

    The paper's default measure (``K = 5`` in the evaluation).  If the
    reference has fewer than ``K`` points, all of them are used.
    """

    def __init__(self, k: int = 5) -> None:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.k = k

    def score(self, point: np.ndarray, reference: np.ndarray) -> float:
        """The mean of the ``K`` smallest distances from ``point``.

        ``np.add.reduce`` is what ``sum`` wraps and ``sum / K`` is what
        ``mean`` computes, and the temporary distance array is squared,
        rooted and partitioned in place: the bits of the ``sum`` /
        ``mean`` expression without the wrappers' per-call cost.
        """
        ref = _check_reference(reference)
        p = _check_point(point, ref.shape[1])
        diff = ref - p
        np.multiply(diff, diff, out=diff)
        dists = np.add.reduce(diff, axis=1)
        np.sqrt(dists, out=dists)
        k = min(self.k, dists.shape[0])
        dists.partition(k - 1)
        return float(np.add.reduce(dists[:k]) / k)

    # bound the (chunk, N, D) broadcast buffer to ~64 MB of float64
    _CHUNK_BYTES = 64 * 1024 * 1024

    def score_batch(self, points: np.ndarray,
                    reference: np.ndarray) -> np.ndarray:
        """Vectorized KNN scores for a ``(B, D)`` stack of points.

        Bit-identical to the scalar :meth:`score` per row: the broadcast
        difference/square/row-sum, per-row partition and k-element mean all
        apply the same per-row kernels the scalar path uses (no matmul
        tricks, whose blocked accumulation would perturb low-order bits).
        Large batches are chunked to bound the broadcast buffer.
        """
        ref = _check_reference(reference)
        pts = _check_points(points, ref.shape[1])
        n, d = ref.shape
        k = min(self.k, n)
        chunk = max(1, self._CHUNK_BYTES // max(1, n * d * 8))
        out = np.empty(pts.shape[0], dtype=np.float64)
        for start in range(0, pts.shape[0], chunk):
            block = pts[start:start + chunk]
            dists = np.sqrt(
                ((ref[None, :, :] - block[:, None, :]) ** 2).sum(axis=2))
            nearest = np.partition(dists, k - 1, axis=1)[:, :k]
            out[start:start + chunk] = nearest.mean(axis=1)
        return out

    def reference_scores(self, reference: np.ndarray) -> np.ndarray:
        """Vectorised leave-one-out KNN scores over the reference set."""
        ref = _check_reference(reference)
        n = ref.shape[0]
        if n < 2:
            raise EmptyReferenceError(
                "need at least 2 reference points for leave-one-out scores")
        sq = (ref ** 2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (ref @ ref.T)
        np.fill_diagonal(d2, np.inf)
        d = np.sqrt(np.maximum(d2, 0.0))
        k = min(self.k, n - 1)
        nearest = np.partition(d, k - 1, axis=1)[:, :k]
        return nearest.mean(axis=1)


class MeanDistance(NonconformityMeasure):
    """Average Euclidean distance to *all* reference points (Section 4's
    introductory example measure)."""

    def score(self, point: np.ndarray, reference: np.ndarray) -> float:
        ref = _check_reference(reference)
        p = _check_point(point, ref.shape[1])
        return float(np.sqrt(((ref - p) ** 2).sum(axis=1)).mean())

    def score_batch(self, points: np.ndarray,
                    reference: np.ndarray) -> np.ndarray:
        """Broadcast mean-distance scores, bit-identical per row."""
        ref = _check_reference(reference)
        pts = _check_points(points, ref.shape[1])
        dists = np.sqrt(((ref[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2))
        return dists.mean(axis=1)

    def reference_scores(self, reference: np.ndarray) -> np.ndarray:
        ref = _check_reference(reference)
        n = ref.shape[0]
        if n < 2:
            raise EmptyReferenceError(
                "need at least 2 reference points for leave-one-out scores")
        sq = (ref ** 2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (ref @ ref.T)
        np.fill_diagonal(d2, 0.0)
        d = np.sqrt(np.maximum(d2, 0.0))
        return d.sum(axis=1) / (n - 1)


class MahalanobisDistance(NonconformityMeasure):
    """Mahalanobis distance to the reference mean (covariance regularised).

    A parametric alternative for ablation: cheap (O(D^2) per point after a
    one-off fit) but assumes an elliptical reference distribution.
    """

    def __init__(self, regularization: float = 1e-6) -> None:
        if regularization <= 0:
            raise ConfigurationError(
                f"regularization must be positive, got {regularization}")
        self.regularization = regularization
        self._cached_ref_id: int | None = None
        self._mean: np.ndarray | None = None
        self._inv_cov: np.ndarray | None = None

    def _fit(self, ref: np.ndarray) -> None:
        self._mean = ref.mean(axis=0)
        cov = np.cov(ref, rowvar=False)
        cov = np.atleast_2d(cov) + self.regularization * np.eye(ref.shape[1])
        self._inv_cov = np.linalg.inv(cov)
        self._cached_ref_id = id(ref)

    def score(self, point: np.ndarray, reference: np.ndarray) -> float:
        ref = _check_reference(reference)
        if ref.shape[0] < 2:
            raise EmptyReferenceError(
                "Mahalanobis needs at least 2 reference points")
        p = _check_point(point, ref.shape[1])
        if self._cached_ref_id != id(reference) or self._mean is None:
            self._fit(ref)
        diff = p - self._mean
        return float(np.sqrt(max(diff @ self._inv_cov @ diff, 0.0)))

    def reference_scores(self, reference: np.ndarray) -> np.ndarray:
        ref = _check_reference(reference)
        if ref.shape[0] < 2:
            raise EmptyReferenceError(
                "Mahalanobis needs at least 2 reference points")
        self._fit(ref)
        diff = ref - self._mean
        d2 = np.einsum("nd,de,ne->n", diff, self._inv_cov, diff)
        return np.sqrt(np.maximum(d2, 0.0))
