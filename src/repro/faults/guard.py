"""Graceful-degradation primitives: frame validation, retries, breaker.

- :class:`FrameGuard` -- admits every frame into the pipeline, checking
  dtype coercibility, shape consistency and finiteness, with a configurable
  policy: ``raise`` (fail fast), ``skip`` (quarantine the frame and move
  on) or ``repair`` (impute bad pixels from the last good frame).
- :class:`RetryPolicy` -- bounded retry with simulated-clock exponential
  backoff around selector / trainer calls.
- :class:`CircuitBreaker` -- counts consecutive resolution failures and,
  once tripped, short-circuits selection to the nearest provisioned model
  until a success closes it again.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FrameValidationError
from repro.sim.clock import SimulatedClock

GUARD_POLICIES = ("raise", "skip", "repair")

#: Guard verdicts.
OK = "ok"
REPAIRED = "repaired"
QUARANTINED = "quarantined"
#: Observer-only verdict: the frame failed under the ``raise`` policy and
#: a :class:`~repro.errors.FrameValidationError` is about to propagate.
REJECTED = "rejected"


def _all_finite(pixels: np.ndarray) -> bool:
    """``np.isfinite(pixels).all()``, cheaper on the common clean frame.

    A NaN or infinite pixel makes the sum of squares non-finite, so a
    finite dot product settles it in one call; a non-finite one (a huge
    finite pixel can overflow it too) falls back to the elementwise test.
    """
    flat = pixels.reshape(-1)
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(flat).all())


@dataclass
class GuardReport:
    """Outcome of admitting one frame.

    ``pixels`` is the array to process (``None`` when quarantined);
    ``reason`` names the defect for repaired / quarantined frames.
    """

    status: str
    pixels: Optional[np.ndarray] = None
    reason: Optional[str] = None


class FrameGuard:
    """Validates frames at the pipeline boundary.

    The expected shape is either given or learned from the first valid
    frame; dtype must be float-coercible.  Repair imputes non-finite pixels
    from the last good frame (element-wise), and substitutes the last good
    frame outright for shape / dtype defects; with no good frame seen yet,
    repair degrades to quarantine.

    ``observer`` (when set) is called as ``observer(status, index, reason)``
    for every frame the guard *intervenes* on -- repaired, quarantined, or
    rejected under the ``raise`` policy just before the error propagates.
    Clean admissions stay silent: interventions are the logical events, and
    firing per clean frame would make the batched fast path (which admits
    whole clean chunks at once) emit a different stream than the scalar
    path.  Observers must be passive; the guard ignores their return value.
    """

    def __init__(self, policy: str = "raise",
                 expected_shape: Optional[Tuple[int, ...]] = None,
                 quarantine_capacity: int = 16,
                 observer: Optional[Callable[[str, int, Optional[str]],
                                             None]] = None) -> None:
        if policy not in GUARD_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {GUARD_POLICIES}, got {policy!r}")
        if quarantine_capacity < 0:
            raise ConfigurationError(
                f"quarantine_capacity must be non-negative, "
                f"got {quarantine_capacity}")
        self.policy = policy
        self.observer = observer
        self.expected_shape = (tuple(expected_shape)
                               if expected_shape is not None else None)
        self._learned_shape = expected_shape is not None
        self.last_good: Optional[np.ndarray] = None
        # bounded keep of recent quarantined frames for post-mortems
        self.quarantine: Deque[Tuple[int, str]] = deque(
            maxlen=quarantine_capacity)
        self.reasons: Dict[str, int] = {}
        self._admitted = 0

    # ------------------------------------------------------------------
    def _defect_of(self, item: object) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """Coerce ``item`` to float pixels; returns ``(pixels, defect)``."""
        raw = getattr(item, "pixels", item)
        try:
            pixels = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            return None, "dtype"
        if self.expected_shape is None:
            # learn the stream's geometry from the first coercible frame
            # (only if it is also finite -- a corrupt first frame must not
            # poison the contract)
            if _all_finite(pixels):
                self.expected_shape = pixels.shape
            elif self.policy != "raise":
                return pixels, "nonfinite"
        if (self.expected_shape is not None
                and pixels.shape != self.expected_shape):
            return pixels, "shape"
        if not _all_finite(pixels):
            return pixels, "nonfinite"
        return pixels, None

    def admit(self, item: object) -> GuardReport:
        """Validate one frame under the configured policy."""
        index = self._admitted
        self._admitted += 1
        pixels, defect = self._defect_of(item)
        if defect is None:
            self.last_good = pixels
            return GuardReport(OK, pixels)
        self.reasons[defect] = self.reasons.get(defect, 0) + 1
        if self.policy == "raise":
            self._notify(REJECTED, index, defect)
            raise FrameValidationError(
                f"frame {index} failed validation: {defect}"
                + (f" (expected shape {self.expected_shape}, "
                   f"got {pixels.shape})" if defect == "shape" else ""))
        if self.policy == "repair" and self.last_good is not None:
            if defect == "nonfinite" and pixels.shape == self.last_good.shape:
                repaired = np.where(np.isfinite(pixels), pixels,
                                    self.last_good)
            else:
                repaired = self.last_good.copy()
            self._notify(REPAIRED, index, defect)
            return GuardReport(REPAIRED, repaired, defect)
        self.quarantine.append((index, defect))
        self._notify(QUARANTINED, index, defect)
        return GuardReport(QUARANTINED, None, defect)

    def _notify(self, status: str, index: int,
                reason: Optional[str]) -> None:
        if self.observer is not None:
            self.observer(status, index, reason)

    def admit_batch(self, items: object) -> Optional[np.ndarray]:
        """Vectorized admission for a chunk of uniformly clean frames.

        Returns the ``(B, *expected_shape)`` float64 pixel stack when every
        frame in ``items`` passes validation, advancing ``_admitted`` and
        ``last_good`` exactly as ``B`` sequential :meth:`admit` calls would.
        Returns ``None`` -- with **no** state mutated -- when the shape is
        still unlearned or any frame needs the scalar path (bad dtype,
        shape mismatch, non-finite pixels), so the caller can fall back to
        per-frame :meth:`admit` and reproduce its accounting and policy
        behaviour bit for bit.
        """
        if self.expected_shape is None:
            return None
        try:
            stack = np.asarray(
                [getattr(item, "pixels", item) for item in items],
                dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if (stack.shape[1:] != self.expected_shape
                or not _all_finite(stack)):
            return None
        self._admitted += stack.shape[0]
        self.last_good = stack[-1]
        return stack

    def reset(self) -> None:
        """Forget session state (shape stays if it was given explicitly)."""
        if not self._learned_shape:
            self.expected_shape = None
        self.last_good = None
        self.quarantine.clear()
        self.reasons = {}
        self._admitted = 0


@dataclass
class RetryPolicy:
    """Bounded retry with exponential simulated-clock backoff.

    ``max_retries`` counts *re*-attempts after the first try; backoff
    charges ``backoff_ms * factor**attempt`` against the clock's
    ``"retry_backoff"`` ledger entry between attempts.
    """

    max_retries: int = 2
    backoff_ms: float = 50.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative: {self.max_retries}")
        if self.backoff_ms < 0:
            raise ConfigurationError(
                f"backoff_ms must be non-negative: {self.backoff_ms}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")

    def run(self, fn: Callable[[], object],
            clock: Optional[SimulatedClock] = None,
            retryable: Tuple[type, ...] = (Exception,),
            non_retryable: Tuple[type, ...] = (),
            on_retry: Optional[Callable[[int, BaseException], None]] = None):
        """Call ``fn`` with up to ``max_retries`` retries.

        Exceptions matching ``non_retryable`` -- control-flow signals like
        ``NovelDistribution`` -- propagate immediately, as does anything
        outside ``retryable``; the last retryable error propagates once
        attempts are exhausted.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retryable as error:
                if isinstance(error, non_retryable):
                    raise
                if attempt >= self.max_retries:
                    raise
                if clock is not None:
                    clock.charge_ms(
                        "retry_backoff",
                        self.backoff_ms * self.backoff_factor ** attempt)
                if on_retry is not None:
                    on_retry(attempt, error)
                attempt += 1


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker for the selection / training path.

    After ``threshold`` consecutive failures the breaker opens: the pipeline
    stops attempting selection and pins the nearest provisioned model until
    a recorded success closes the circuit.  ``trips`` counts open events.

    ``on_trip`` / ``on_close`` (when set) observe the state *transitions*:
    ``on_trip(breaker)`` fires exactly when the circuit opens and
    ``on_close(breaker)`` exactly when a success closes an open circuit --
    not on every failure or success -- so an observer sees the same
    transition stream however the failures were batched.  Callbacks must be
    passive; return values are ignored.
    """

    threshold: int = 3
    failures: int = 0
    trips: int = 0
    is_open: bool = field(default=False)
    on_trip: Optional[Callable[["CircuitBreaker"], None]] = field(
        default=None, repr=False, compare=False)
    on_close: Optional[Callable[["CircuitBreaker"], None]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ConfigurationError(
                f"threshold must be positive: {self.threshold}")

    def record_failure(self) -> None:
        self.failures += 1
        if not self.is_open and self.failures >= self.threshold:
            self.is_open = True
            self.trips += 1
            if self.on_trip is not None:
                self.on_trip(self)

    def record_success(self) -> None:
        was_open = self.is_open
        self.failures = 0
        self.is_open = False
        if was_open and self.on_close is not None:
            self.on_close(self)

    def reset(self) -> None:
        """Zero all counters (new session)."""
        self.failures = 0
        self.trips = 0
        self.is_open = False
