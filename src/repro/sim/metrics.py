"""Metric collectors used across experiments.

- :class:`DetectionRecord` -- detection delay bookkeeping (Figure 3 / 4).
- :class:`InvocationCounter` -- model invocations per frame (Figure 6).
- :class:`AccuracyCollector` -- query accuracy ``A_q`` (Figures 7 / 8).
- :class:`FaultStats` -- degradation accounting (guard verdicts, retries,
  breaker activity) surfaced in ``PipelineResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


@dataclass
class DetectionRecord:
    """One drift-detection episode.

    ``drift_frame`` is the ground-truth frame index where the distribution
    changed; ``detected_frame`` the index where the detector declared drift
    (``None`` if it never fired).  ``delay`` is the paper's metric: frames
    processed from the change point until detection.
    """

    sequence: str
    drift_frame: int
    detected_frame: Optional[int]

    @property
    def detected(self) -> bool:
        return self.detected_frame is not None

    @property
    def delay(self) -> Optional[int]:
        if self.detected_frame is None:
            return None
        return self.detected_frame - self.drift_frame

    @property
    def false_positive(self) -> bool:
        """True when the detector fired before the ground-truth change."""
        return (self.detected_frame is not None
                and self.detected_frame < self.drift_frame)


def mean_delay(records: List[DetectionRecord]) -> float:
    """Average detection delay over records that actually detected."""
    delays = [r.delay for r in records if r.delay is not None]
    if not delays:
        return float("nan")
    return sum(delays) / len(delays)


class InvocationCounter:
    """Counts model invocations per processed frame (Figure 6's metric).

    State is O(models), not O(frames): every exported metric is a ratio
    of running counts, so the counter keeps sufficient statistics
    (frames seen, invocations made, multi-model frames) instead of a
    per-frame log.  That keeps long-lived sessions' checkpoints bounded
    no matter how many frames they process.
    """

    def __init__(self) -> None:
        self._frames = 0
        self._invocations = 0
        self._multi_frames = 0
        self._per_model: Dict[str, int] = {}

    def record(self, models: List[str]) -> None:
        """Record that ``models`` were all invoked for one frame."""
        self.record_repeat(models, 1)

    def record_repeat(self, models: List[str], times: int) -> None:
        """Record ``times`` consecutive frames that each invoked ``models``
        (state ends up identical to ``times`` :meth:`record` calls)."""
        if not models:
            raise ConfigurationError("a frame must invoke at least one model")
        if times < 0:
            raise ConfigurationError(f"times must be non-negative: {times}")
        self._frames += times
        self._invocations += len(models) * times
        if len(models) > 1:
            self._multi_frames += times
        for name in models:
            self._per_model[name] = self._per_model.get(name, 0) + times

    @property
    def frames(self) -> int:
        return self._frames

    @property
    def total_invocations(self) -> int:
        return self._invocations

    @property
    def invocations_per_frame(self) -> float:
        """The paper's headline metric; 1.0 means single-model processing."""
        if not self._frames:
            return 0.0
        return self._invocations / self._frames

    @property
    def ensemble_fraction(self) -> float:
        """Fraction of frames processed by more than one model."""
        if not self._frames:
            return 0.0
        return self._multi_frames / self._frames

    def per_model(self) -> Dict[str, int]:
        return dict(self._per_model)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot for checkpoint / restore."""
        return {"frames": self._frames,
                "invocations": self._invocations,
                "multi_frames": self._multi_frames,
                "per_model": dict(self._per_model)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._frames = int(state["frames"])
        self._invocations = int(state["invocations"])
        self._multi_frames = int(state["multi_frames"])
        self._per_model = {str(k): int(v)
                           for k, v in state["per_model"].items()}


@dataclass
class FaultStats:
    """Degradation accounting for one pipeline session.

    ``frames_ok`` counts frames that passed validation untouched;
    ``frames_repaired`` / ``frames_quarantined`` the guard's interventions
    (a quarantined frame is dropped from processing and emits no record).
    ``retries`` counts re-attempted selector / trainer calls,
    ``selection_failures`` / ``training_failures`` the calls that exhausted
    their retries, ``breaker_trips`` how often the circuit opened and
    ``breaker_fallbacks`` how many drift resolutions were short-circuited
    to the nearest provisioned model while it was open.
    """

    frames_ok: int = 0
    frames_repaired: int = 0
    frames_quarantined: int = 0
    retries: int = 0
    selection_failures: int = 0
    training_failures: int = 0
    breaker_trips: int = 0
    breaker_fallbacks: int = 0
    quarantine_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def frames_faulty(self) -> int:
        """Frames the guard had to intervene on."""
        return self.frames_repaired + self.frames_quarantined

    @property
    def degraded(self) -> bool:
        """True when any degradation (guard, retry, breaker) occurred."""
        return (self.frames_faulty > 0 or self.retries > 0
                or self.selection_failures > 0 or self.training_failures > 0
                or self.breaker_trips > 0)

    def as_dict(self) -> Dict[str, object]:
        return {"frames_ok": self.frames_ok,
                "frames_repaired": self.frames_repaired,
                "frames_quarantined": self.frames_quarantined,
                "retries": self.retries,
                "selection_failures": self.selection_failures,
                "training_failures": self.training_failures,
                "breaker_trips": self.breaker_trips,
                "breaker_fallbacks": self.breaker_fallbacks,
                "quarantine_reasons": dict(self.quarantine_reasons)}

    def state_dict(self) -> dict:
        return self.as_dict()

    def load_state_dict(self, state: dict) -> None:
        for name in ("frames_ok", "frames_repaired", "frames_quarantined",
                     "retries", "selection_failures", "training_failures",
                     "breaker_trips", "breaker_fallbacks"):
            setattr(self, name, int(state[name]))
        self.quarantine_reasons = {
            str(k): int(v)
            for k, v in state.get("quarantine_reasons", {}).items()}


@dataclass
class AccuracyCollector:
    """Accumulates query accuracy ``A_q``: fraction of frames whose
    prediction matches ground truth."""

    correct: int = 0
    total: int = 0
    per_sequence: Dict[str, List[int]] = field(default_factory=dict)

    def record(self, sequence: str, is_correct: bool) -> None:
        self.correct += int(is_correct)
        self.total += 1
        bucket = self.per_sequence.setdefault(sequence, [0, 0])
        bucket[0] += int(is_correct)
        bucket[1] += 1

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return self.correct / self.total

    def sequence_accuracy(self, sequence: str) -> float:
        bucket = self.per_sequence.get(sequence)
        if not bucket or bucket[1] == 0:
            return 0.0
        return bucket[0] / bucket[1]

    def by_sequence(self) -> Dict[str, float]:
        return {name: self.sequence_accuracy(name) for name in self.per_sequence}
