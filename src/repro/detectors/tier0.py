"""Tier-0 drift screening from raw pixel statistics (no VAE, no model).

The runtime kernel's monitoring seam usually carries the paper's VAE+DI
path -- ~3 ms of simulated cost per frame, dominated by the encode.  Most
frames in a stationary stream carry no drift signal, so production drift
stacks put a *screen* in front of the expensive detector: a handful of
numpy-only statistics that cost microseconds and are compared against the
reference sample with rolling z-scores.  This module is that screen:

- :func:`ssim_index` -- a global structural-similarity index between a
  frame and the reference frame (luminance x contrast x structure, the
  standard SSIM form with the windowing collapsed to whole-frame
  moments).  Bounded in ``[0, 1]``, bitwise symmetric, and exactly ``1.0``
  on identical frames.
- :func:`edge_iou` -- intersection-over-union of gradient-magnitude edge
  masks (Sobel for images, central differences for flat latent vectors).
  Bounded in ``[0, 1]``, symmetric, exactly ``1.0`` on identical frames,
  and invariant to a constant brightness offset (a constant shifts no
  gradient).
- brightness (frame mean) and variance, tracked as plain scalars.

:class:`PixelStatMonitor` turns the four statistics into a
:class:`~repro.runtime.protocols.DriftMonitor`: per-statistic baselines
(mean / spread) are calibrated from the reference sample at construction,
every observed frame updates a rolling window per statistic, and the
monitor's *suspicion* is the worst alarm-side z-score across statistics
(similarity statistics alarm on a drop, brightness / variance on any
two-sided deviation).  Sustained suspicion latches a standalone drift
verdict; the cascade layer (:mod:`repro.cascade`) instead reads the
per-frame suspicion to decide when to escalate to a tier-1 detector.

The functions above are the reference implementations.  The monitor
computes the same four statistics for a whole ``(B, ...)`` chunk at once
(:meth:`PixelStatMonitor.block_stats`): row-wise moments, a batched
central-difference or Sobel gradient and integer IoU counts, against
reference-side quantities computed once at construction.  Every value is
bit for bit what the reference functions give frame by frame, so one
frame and any split of a stream observe alike.  The monitor is fully
:class:`~repro.runtime.protocols.Snapshotable`, which qualifies it for
the kernel's optimistic batched-rollback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    EmptyReferenceError,
)

#: The tracked statistics, in a fixed order (baselines, rolling windows
#: and state dicts are all keyed by these names).  The similarity
#: statistics come first: drift shows as a *drop* in them, so only the
#: negative side of their z-score raises suspicion, while brightness and
#: variance alarm on any two-sided deviation.
STAT_NAMES: Tuple[str, ...] = ("ssim", "edge_iou", "brightness", "variance")

#: Numerical floor for spans and spreads (avoids division by zero on
#: degenerate constant references).
_FLOOR = 1e-9


def ssim_index(a: np.ndarray, b: np.ndarray) -> float:
    """Global SSIM between two equally-shaped frames, in ``[0, 1]``.

    The standard SSIM form with whole-frame moments (no sliding window):
    ``((2 mu_a mu_b + C1)(2 cov + C2)) / ((mu_a^2 + mu_b^2 + C1)
    (var_a + var_b + C2))`` with ``C1 = (0.01 L)^2``, ``C2 = (0.03 L)^2``
    and ``L`` the combined data range of both frames.  Every term is
    computed symmetrically, so ``ssim_index(a, b) == ssim_index(b, a)``
    bit for bit, and identical frames score exactly ``1.0``.
    """
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"ssim_index needs equally-sized frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    if x.size == 0:
        raise DimensionMismatchError("ssim_index needs non-empty frames")
    span = max(float(max(x.max(), y.max())) - float(min(x.min(), y.min())),
               _FLOOR)
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    mu_x, mu_y = float(x.mean()), float(y.mean())
    dx, dy = x - mu_x, y - mu_y
    var_x, var_y = float((dx * dx).mean()), float((dy * dy).mean())
    cov = float((dx * dy).mean())
    score = (((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
             / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))
    return float(min(max(score, 0.0), 1.0))


def gradient_magnitude(frame: np.ndarray) -> np.ndarray:
    """Per-element gradient magnitude of a frame.

    Latent vectors (1-D) use central differences; images (2-D) use the
    3x3 Sobel operator over an edge-padded frame; channel-last images
    (3-D) are collapsed to their channel mean first.  All arithmetic is
    exact on integer-valued frames, so the magnitude -- and every edge
    mask derived from it -- is invariant to a constant integer offset.
    """
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.mean(axis=-1)
    if arr.ndim == 1:
        if arr.size < 2:
            return np.zeros_like(arr)
        return np.abs(np.gradient(arr))
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"gradient_magnitude expects a 1-D, 2-D or 3-D frame, got "
            f"shape {arr.shape}")
    padded = np.pad(arr, 1, mode="edge")
    gx = (padded[:-2, 2:] + 2.0 * padded[1:-1, 2:] + padded[2:, 2:]
          - padded[:-2, :-2] - 2.0 * padded[1:-1, :-2] - padded[2:, :-2])
    gy = (padded[2:, :-2] + 2.0 * padded[2:, 1:-1] + padded[2:, 2:]
          - padded[:-2, :-2] - 2.0 * padded[:-2, 1:-1] - padded[:-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


def edge_mask(frame: np.ndarray, tau: float = 0.25) -> np.ndarray:
    """Boolean edge mask: gradient magnitude ``>= tau * peak``.

    A flat frame (zero peak gradient) has *no* edges -- the mask is empty
    rather than vacuously full.
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError(f"tau must be in (0, 1], got {tau}")
    magnitude = gradient_magnitude(frame)
    peak = float(magnitude.max()) if magnitude.size else 0.0
    if peak <= 0.0:
        return np.zeros(magnitude.shape, dtype=bool)
    return magnitude >= tau * peak


def edge_iou(a: np.ndarray, b: np.ndarray, tau: float = 0.25) -> float:
    """Intersection-over-union of the two frames' edge masks, in
    ``[0, 1]``.  Symmetric, exactly ``1.0`` on identical frames, and
    ``1.0`` when both frames are flat (two edgeless frames agree)."""
    mask_a, mask_b = edge_mask(a, tau), edge_mask(b, tau)
    if mask_a.shape != mask_b.shape:
        raise DimensionMismatchError(
            f"edge_iou needs equally-shaped frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    union = int(np.logical_or(mask_a, mask_b).sum())
    if union == 0:
        return 1.0
    intersection = int(np.logical_and(mask_a, mask_b).sum())
    return intersection / union


def _block_gradient(frames: np.ndarray) -> np.ndarray:
    """:func:`gradient_magnitude` of every frame of a C-contiguous
    float64 ``(B, ...)`` stack, bit for bit (same operations, same
    order, on a leading batch axis)."""
    arr = frames.mean(axis=-1) if frames.ndim == 4 else frames
    if arr.ndim == 2:
        if arr.shape[1] < 2:
            return np.zeros_like(arr)
        grad = np.empty_like(arr)
        # np.gradient: central differences inside, one-sided at the ends
        grad[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / 2.0
        grad[:, 0] = arr[:, 1] - arr[:, 0]
        grad[:, -1] = arr[:, -1] - arr[:, -2]
        return np.abs(grad, out=grad)
    if arr.ndim != 3:
        raise DimensionMismatchError(
            f"gradient_magnitude expects a 1-D, 2-D or 3-D frame, got "
            f"shape {frames.shape[1:]}")
    b, h, w = arr.shape
    padded = np.empty((b, h + 2, w + 2))      # np.pad(mode="edge")
    padded[:, 1:-1, 1:-1] = arr
    padded[:, 0, 1:-1] = arr[:, 0]
    padded[:, -1, 1:-1] = arr[:, -1]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    gx = (padded[:, :-2, 2:] + 2.0 * padded[:, 1:-1, 2:] + padded[:, 2:, 2:]
          - padded[:, :-2, :-2] - 2.0 * padded[:, 1:-1, :-2]
          - padded[:, 2:, :-2])
    gy = (padded[:, 2:, :-2] + 2.0 * padded[:, 2:, 1:-1] + padded[:, 2:, 2:]
          - padded[:, :-2, :-2] - 2.0 * padded[:, :-2, 1:-1]
          - padded[:, :-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """``rows.mean(axis=-1)`` without its Python wrapper: the same sum
    divided by the same count, bit for bit."""
    return np.add.reduce(rows, axis=-1) / rows.shape[-1]


def _suspicion_of(zscores: Sequence[float]) -> float:
    """The worst alarm-side z-score of one frame (``STAT_NAMES`` order):
    a drop in ``ssim`` / ``edge_iou``, any deviation in ``brightness`` /
    ``variance``."""
    ssim, iou, brightness, variance = zscores
    return max(max(0.0, -ssim), max(0.0, -iou), abs(brightness),
               abs(variance))


@dataclass(frozen=True)
class Tier0Decision:
    """One observed frame's screen verdict.

    ``drift`` is the latched standalone verdict (the
    :class:`~repro.runtime.protocols.DriftMonitor` contract);
    ``suspicion`` is the worst alarm-side rolling z-score across the
    statistics, in reference-sigma units -- the cascade's escalation
    signal; ``zscores`` carries the per-statistic scores for diagnostics.
    """

    drift: bool
    suspicion: float
    zscores: Dict[str, float]


class PixelStatMonitor:
    """Screen frames with rolling z-scores of cheap pixel statistics.

    Parameters
    ----------
    reference:
        The deployed bundle's reference sample, shape ``(N >= 5, ...)``
        (one frame per row).  The row mean is the reference frame the
        similarity statistics compare against, and the per-row statistic
        distribution calibrates each statistic's baseline mean / spread.
    smoothing:
        Rolling-window length per statistic.  The z-score of a window of
        ``n`` observations uses the standard-error scale
        ``sigma / sqrt(n)``, so suspicion is comparable while the window
        fills.
    drift_z / drift_confirm:
        The standalone latch: suspicion at or above ``drift_z`` for
        ``drift_confirm`` consecutive frames latches ``drift_detected``
        (cleared only by :meth:`reset`).  The cascade keeps these at
        their conservative defaults and acts on ``suspicion`` instead.

    Block screening: the reference frame's mean, variance, deviations,
    span bounds and edge mask are computed once here, and every call --
    :meth:`observe`, :meth:`observe_batch`, :meth:`peek_suspicion` and
    the baseline calibration itself -- runs one :meth:`block_stats` over
    its whole stack.  The rolling windows are one ``(4, <= smoothing)``
    history array; a chunk's window means come from one gather of its
    windows into a C-contiguous ``(4, B, smoothing)`` stack, which numpy
    sums row by row in the order ``np.mean`` sums a single window.  A
    frame's decision is therefore the same in any split of the stream,
    and ``observe`` is simply the one-frame block.
    """

    def __init__(self, reference: np.ndarray, smoothing: int = 8,
                 drift_z: float = 6.0, drift_confirm: int = 2) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim < 2 or ref.shape[0] < 5:
            raise EmptyReferenceError(
                f"reference must be (N>=5, ...), got {ref.shape}")
        if smoothing < 1:
            raise ConfigurationError(f"smoothing must be >= 1: {smoothing}")
        if drift_z <= 0:
            raise ConfigurationError(f"drift_z must be positive: {drift_z}")
        if drift_confirm < 1:
            raise ConfigurationError(
                f"drift_confirm must be >= 1: {drift_confirm}")
        self.smoothing = int(smoothing)
        self.drift_z = float(drift_z)
        self.drift_confirm = int(drift_confirm)
        self.reference_frame = ref.mean(axis=0)
        # the reference side of ssim_index / edge_iou, computed once
        y = self.reference_frame.ravel()
        self._ref_mean = float(y.mean())
        self._ref_dev = y - self._ref_mean
        self._ref_var = float((self._ref_dev * self._ref_dev).mean())
        self._ref_max, self._ref_min = float(y.max()), float(y.min())
        self._ref_edges = edge_mask(self.reference_frame).ravel()
        # baselines: each statistic's mean / spread over the reference rows
        samples = self.block_stats(ref)
        self._mu = np.array([float(np.mean(row)) for row in samples])
        self._sigma = np.array([float(max(np.std(row), _FLOOR))
                                for row in samples])
        self._history = np.empty((len(STAT_NAMES), 0))
        self._streak = 0
        self._frame_index = 0
        self._drift_frame: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        return self._drift_frame

    @property
    def frames_seen(self) -> int:
        return self._frame_index

    # ------------------------------------------------------------------
    def block_stats(self, frames: np.ndarray) -> np.ndarray:
        """The four statistics of every frame of a ``(B, ...)`` stack
        against the reference frame, as a ``(4, B)`` array in
        :data:`STAT_NAMES` order.

        Row by row this is bit for bit ``ssim_index(frame, ref)``,
        ``edge_iou(frame, ref)``, ``frame.mean()`` and ``frame.var()``:
        the row reductions run over C-contiguous rows, so numpy sums
        each row in the order it sums one frame.
        """
        arr = np.ascontiguousarray(frames, dtype=np.float64)
        if arr.shape[1:] != self.reference_frame.shape:
            raise DimensionMismatchError(
                f"pixel-stat screen expects frames shaped "
                f"{self.reference_frame.shape}, got {arr.shape[1:]}")
        b = arr.shape[0]
        flat = arr.reshape(b, -1)
        if flat.shape[1] == 0:
            raise DimensionMismatchError("ssim_index needs non-empty frames")
        mean = _row_mean(flat)
        dev = flat - mean[:, None]
        var = _row_mean(dev * dev)
        cov = _row_mean(dev * self._ref_dev)
        span = np.maximum(
            np.maximum(np.maximum.reduce(flat, axis=1), self._ref_max)
            - np.minimum(np.minimum.reduce(flat, axis=1), self._ref_min),
            _FLOOR).tolist()
        # Python's ** (C pow), not numpy's square: they differ in the
        # last bit for some spans
        c1 = np.array([(0.01 * s) ** 2 for s in span])
        c2 = np.array([(0.03 * s) ** 2 for s in span])
        mu_y = self._ref_mean
        stats = np.empty((len(STAT_NAMES), b))
        score = (((2.0 * mean * mu_y + c1) * (2.0 * cov + c2))
                 / ((mean * mean + mu_y * mu_y + c1)
                    * (var + self._ref_var + c2)))
        # clamp to [0, 1] as Python's max / min do (a -0.0 score stays)
        score = np.where(0.0 > score, 0.0, score)
        stats[0] = np.where(1.0 < score, 1.0, score)
        magnitude = _block_gradient(arr).reshape(b, -1)
        peak = np.maximum.reduce(magnitude, axis=1)
        edges = magnitude >= (0.25 * peak)[:, None]
        edges &= (peak > 0.0)[:, None]      # a flat frame has no edges
        union = np.add.reduce(edges | self._ref_edges, axis=1)
        inter = np.add.reduce(edges & self._ref_edges, axis=1)
        stats[1] = 1.0                      # two edgeless frames agree
        np.divide(inter, union, out=stats[1], where=union > 0)
        stats[2] = mean
        stats[3] = var
        return stats

    def _rolling_zscores(self, stats: np.ndarray) -> np.ndarray:
        """Push a ``(4, B)`` block of statistics through the rolling
        windows; returns each frame's ``(4, B)`` window z-scores."""
        size = self.smoothing
        held = self._history.shape[1]
        b = stats.shape[1]
        seq = np.concatenate((self._history, stats), axis=1)
        ends = np.arange(held + 1, held + b + 1)
        means = np.empty_like(stats)
        # frames whose window is still filling after a reset
        filling = min(b, max(0, size - held - 1))
        for i in range(filling):
            means[:, i] = _row_mean(seq[:, :held + i + 1])
        if filling < b:
            starts = ends[filling:] - size
            # seq[:, idx] comes back non-C-contiguous and numpy would sum
            # it in another order than np.mean sums one window
            windows = np.ascontiguousarray(
                seq[:, starts[:, None] + np.arange(size)])
            means[:, filling:] = _row_mean(windows)
        self._history = seq[:, -size:].copy()
        scale = self._sigma[:, None] / np.sqrt(np.minimum(ends, size))
        return (means - self._mu[:, None]) / scale

    def peek_suspicion(self, frame: np.ndarray) -> float:
        """Single-frame suspicion with *no* state touched: the z-score of
        the frame's statistics against the calibrated baselines.  The
        serving layer's degraded pass uses this to keep screening frames
        it will not run the full monitor on."""
        stats = self.block_stats(np.asarray(frame)[None, ...])[:, 0]
        return _suspicion_of(((stats - self._mu) / self._sigma).tolist())

    # ------------------------------------------------------------------
    def observe(self, pixels: np.ndarray) -> Tier0Decision:
        return self._observe_block(np.asarray(pixels)[None, ...])[0]

    def observe_batch(self, frames: np.ndarray) -> List[Tier0Decision]:
        """Observe a ``(B, ...)`` stack (a lone frame is a block of one)
        with one :meth:`block_stats` call; bit-identical to observing
        the frames one by one."""
        arr = np.asarray(frames)
        if arr.ndim == self.reference_frame.ndim:
            arr = arr[None, ...]
        if arr.shape[0] == 0:
            return []
        return self._observe_block(arr)

    def _observe_block(self, frames: np.ndarray) -> List[Tier0Decision]:
        zscores = self._rolling_zscores(self.block_stats(frames))
        decisions = []
        for column in zscores.T.tolist():
            suspicion = _suspicion_of(column)
            if suspicion >= self.drift_z:
                self._streak += 1
            else:
                self._streak = 0
            if (self._streak >= self.drift_confirm
                    and self._drift_frame is None):
                self._drift_frame = self._frame_index
            self._frame_index += 1
            decisions.append(Tier0Decision(
                drift=self._drift_frame is not None, suspicion=suspicion,
                zscores=dict(zip(STAT_NAMES, column))))
        return decisions

    def reset(self) -> None:
        """Re-arm against the current reference (the
        :class:`~repro.runtime.protocols.DriftMonitor` contract)."""
        self._history = np.empty((len(STAT_NAMES), 0))
        self._streak = 0
        self._frame_index = 0
        self._drift_frame = None

    # ------------------------------------------------------------------
    # Snapshotable: dynamic state only (baselines are configuration,
    # rebuilt from the deployed bundle on restore)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "frame_index": self._frame_index,
            "drift_frame": self._drift_frame,
            "streak": self._streak,
            "windows": dict(zip(STAT_NAMES, self._history.tolist())),
        }

    def load_state_dict(self, state: dict) -> None:
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._streak = int(state["streak"])
        windows = [[float(value) for value in state["windows"][name]]
                   for name in STAT_NAMES]
        self._history = np.array(windows, dtype=np.float64).reshape(
            len(STAT_NAMES), -1)[:, -self.smoothing:]
