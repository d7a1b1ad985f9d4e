"""The two-tier cascade monitor and its deterministic escalation policy.

``CascadeMonitor`` screens every frame with a cheap tier-0 monitor and
feeds only *escalated* frames to the expensive tier-1 detector.  The
whole composition satisfies :class:`~repro.runtime.protocols.DriftMonitor`
-- and, when both tiers qualify, :class:`~repro.runtime.protocols.
Snapshotable` plus ``observe_batch`` -- so a cascade is interchangeable
with a flat detector everywhere the kernel's ``monitor_factory`` seam is
accepted: sequential, batched, serve and fleet substrates all stay
bit-identical because escalation is a pure function of the tier-0
statistics and the policy's counters.

Escalation semantics (:class:`EscalationPolicy`):

- suspicion at or above ``threshold`` escalates the breaching frame and
  opens an escalation window covering the next ``window`` frames;
- any breach *inside* an open window refreshes it (sticky escalation: a
  sustained drift keeps the tier-1 detector fed until it rules);
- when a window drains without re-breach, ``cooldown`` frames must pass
  before the policy re-arms -- the hysteresis that stops a suspicion
  level hovering at the threshold from flapping the expensive tier.

The tier-1 monitor is the *authority* on drift: the cascade latches its
own ``drift_frame`` (in cascade frame indices, since tier 1 only sees a
subsequence) the first time the tier-1 detector flags.  Per-tier cost is
accounted two ways: an optional :class:`~repro.sim.clock.SimulatedClock`
is charged the tier's operations per observed frame, and the recorder
(when one is attached) carries ``cascade.frames`` /
``cascade.escalated_frames`` counters, per-tier simulated-microsecond
histograms, and a ``cascade.escalated`` logical event per window opening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import CascadeError, CheckpointError, ConfigurationError
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.protocols import DriftMonitor, Snapshotable
from repro.sim.costs import CostProfile, PAPER_COSTS

#: Simulated operations one tier-0 screen costs per frame.
TIER0_OPS: Tuple[str, ...] = ("pixelstat_screen",)

#: Simulated operations one tier-1 (VAE+DI) observation costs per frame.
TIER1_OPS: Tuple[str, ...] = ("vae_encode", "knn_nonconformity",
                              "martingale_update")

#: Histogram boundaries for the per-tier simulated-microsecond cost.
_US_BUCKETS: Tuple[float, ...] = (10.0, 50.0, 100.0, 500.0, 1000.0,
                                  2500.0, 5000.0, 10000.0)


class EscalationPolicy:
    """Deterministic threshold + window + hysteresis-cooldown machine.

    The policy is pure state-machine logic over the suspicion values it
    is shown -- no RNG, no clock -- so two policies with equal
    configuration and equal ``state_dict`` produce identical escalation
    sequences on identical inputs (the property the conformance kit's
    determinism clause pins).
    """

    def __init__(self, threshold: float = 3.5, window: int = 16,
                 cooldown: int = 32) -> None:
        if threshold <= 0:
            raise ConfigurationError(
                f"escalation threshold must be positive: {threshold}")
        if window < 1:
            raise ConfigurationError(
                f"escalation window must be >= 1: {window}")
        if cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be non-negative: {cooldown}")
        self.threshold = float(threshold)
        self.window = int(window)
        self.cooldown = int(cooldown)
        self._window_left = 0
        self._cooldown_left = 0

    @property
    def escalated(self) -> bool:
        """Whether an escalation window is currently open."""
        return self._window_left > 0

    def decide(self, suspicion: float) -> bool:
        """Advance the machine one frame; returns whether this frame is
        escalated to tier 1."""
        if self._window_left > 0:
            self._window_left -= 1
            if suspicion >= self.threshold:
                self._window_left = self.window
            if self._window_left == 0:
                self._cooldown_left = self.cooldown
            return True
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        if suspicion >= self.threshold:
            self._window_left = self.window
            return True
        return False

    def reset(self) -> None:
        self._window_left = 0
        self._cooldown_left = 0

    def state_dict(self) -> dict:
        return {"window_left": self._window_left,
                "cooldown_left": self._cooldown_left}

    def load_state_dict(self, state: dict) -> None:
        self._window_left = int(state["window_left"])
        self._cooldown_left = int(state["cooldown_left"])


@dataclass(frozen=True)
class CascadeDecision:
    """One frame's cascade verdict: the latched drift flag (tier-1
    authority), whether this frame was escalated, and the tier-0
    suspicion that drove the decision."""

    drift: bool
    escalated: bool
    suspicion: float


def _tier_qualifies(monitor: object) -> bool:
    """Whether a tier individually qualifies for the optimistic batched
    path: a callable ``observe_batch`` *and* Snapshotable -- the same
    rule :class:`~repro.runtime.monitoring.MonitorStage` applies."""
    return (callable(getattr(monitor, "observe_batch", None))
            and isinstance(monitor, Snapshotable))


class CascadeMonitor:
    """Compose a cheap tier-0 screen with an expensive tier-1 detector.

    Parameters
    ----------
    tier0 / tier1:
        Any two :class:`~repro.runtime.protocols.DriftMonitor` instances.
        Tier 0 should expose a ``suspicion`` attribute on its decisions
        (as :class:`~repro.detectors.tier0.Tier0Decision` does); a
        bool-only tier 0 degrades gracefully -- a raised flag counts as
        threshold-level suspicion.
    policy:
        The :class:`EscalationPolicy`; defaults are tuned for the
        gaussian certification fixtures.
    clock / profile / recorder:
        Optional cost and observability plumbing.  The clock is charged
        ``tier0_ops`` per frame and ``tier1_ops`` per escalated frame;
        the recorder gets counters, per-tier cost histograms and a
        ``cascade.escalated`` event per window opening.  Both default to
        inert (zoo-built cascades run bare).

    Block screening: ``observe_batch`` screens a whole chunk with one
    tier-0 ``observe_batch`` call, runs :meth:`EscalationPolicy.decide`
    over the suspicions in frame order, and feeds every escalated frame
    to tier 1 in one ``observe_batch`` call.  Both tiers' batched paths
    are bit-identical to frame-by-frame observation, so any split of a
    stream gives the same decisions, state, clock ledger and telemetry;
    ``observe`` is the one-frame block.

    ``observe_batch`` is only *bound* when both tiers individually
    qualify for the kernel's optimistic batched path (callable
    ``observe_batch`` + Snapshotable).  A tier-1 monitor without a
    batched path (e.g. ODIN) has not certified snapshot-replay
    semantics, so the cascade refuses to advertise one on its behalf --
    :attr:`~repro.runtime.monitoring.MonitorStage.supports_rollback`
    then reports ``False`` and the kernel drives the cascade frame by
    frame, exactly as it drives the bare tier-1 monitor.
    """

    def __init__(self, tier0: DriftMonitor, tier1: DriftMonitor,
                 policy: Optional[EscalationPolicy] = None,
                 clock: Optional[object] = None,
                 profile: Optional[CostProfile] = None,
                 recorder: Optional[object] = None,
                 tier0_ops: Tuple[str, ...] = TIER0_OPS,
                 tier1_ops: Tuple[str, ...] = TIER1_OPS) -> None:
        for label, tier in (("tier0", tier0), ("tier1", tier1)):
            if not isinstance(tier, DriftMonitor):
                raise CascadeError(
                    f"cascade {label} monitor {type(tier).__name__} does "
                    f"not satisfy the DriftMonitor protocol")
        self.tier0 = tier0
        self.tier1 = tier1
        self.policy = policy if policy is not None else EscalationPolicy()
        self.clock = clock
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.tier0_ops = tuple(tier0_ops)
        self.tier1_ops = tuple(tier1_ops)
        costs = profile if profile is not None else PAPER_COSTS
        self._tier0_us = 1000.0 * sum(costs.cost(op)
                                      for op in self.tier0_ops)
        self._tier1_us = 1000.0 * sum(costs.cost(op)
                                      for op in self.tier1_ops)
        self._frame_index = 0
        self._drift_frame: Optional[int] = None
        self._frames_escalated = 0
        self._escalations = 0
        if _tier_qualifies(tier0) and _tier_qualifies(tier1):
            self.observe_batch = self._observe_batch

    # ------------------------------------------------------------------
    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        return self._drift_frame

    @property
    def escalated(self) -> bool:
        return self.policy.escalated

    @property
    def frames_seen(self) -> int:
        return self._frame_index

    @property
    def frames_escalated(self) -> int:
        return self._frames_escalated

    @property
    def escalations(self) -> int:
        """How many escalation windows have been opened."""
        return self._escalations

    # ------------------------------------------------------------------
    def _suspicion_of(self, decision: object) -> float:
        suspicion = getattr(decision, "suspicion", None)
        if suspicion is not None:
            return float(suspicion)
        # bool-only tier 0: a raised flag is exactly threshold suspicion
        flagged = bool(getattr(decision, "drift", decision))
        return self.policy.threshold if flagged else 0.0

    def peek_suspicion(self, pixels: np.ndarray) -> Optional[float]:
        """Stateless tier-0 suspicion for one frame (``None`` when the
        tier-0 monitor offers no peek); the serving layer's degraded
        pass screens with this."""
        peek = getattr(self.tier0, "peek_suspicion", None)
        if peek is None:
            return None
        return float(peek(pixels))

    # ------------------------------------------------------------------
    def observe(self, pixels: np.ndarray) -> CascadeDecision:
        return self._route(np.asarray(pixels)[None, ...],
                           [self.tier0.observe(pixels)])[0]

    def _observe_batch(self, frames: np.ndarray) -> List[CascadeDecision]:
        """Screen a ``(B, ...)`` stack with one tier-0 ``observe_batch``
        and feed its escalated frames to tier 1 in one call; bit-identical
        to observing the frames one by one.  Bound as ``observe_batch``
        only when both tiers qualify -- see the class docstring."""
        arr = np.asarray(frames)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[0] == 0:
            return []
        return self._route(arr, self.tier0.observe_batch(arr))

    def _route(self, frames: np.ndarray,
               screened: list) -> List[CascadeDecision]:
        """Escalate a screened block and run tier 1 on the escalated
        frames.

        The policy, clock, counters, histograms and ``cascade.escalated``
        events advance frame by frame exactly as single observations
        advance them.  Tier 1 then sees every escalated frame of the
        block in one call (``observe`` for a lone frame), and the cascade
        latches at the first escalated frame whose tier-1 verdict reports
        drift.
        """
        start = self._frame_index
        clock = self.clock
        suspicions = []
        escalated = []
        for offset, verdict in enumerate(screened):
            if clock is not None:
                for op in self.tier0_ops:
                    clock.charge(op)
            suspicion = self._suspicion_of(verdict)
            suspicions.append(suspicion)
            was_open = self.policy.escalated
            if not self.policy.decide(suspicion):
                continue
            escalated.append(offset)
            if not was_open:
                self._escalations += 1
                self.obs.event("cascade.escalated", frame=start + offset,
                               suspicion=round(suspicion, 6))
            if clock is not None:
                for op in self.tier1_ops:
                    clock.charge(op)
        if escalated:
            self._run_tier1(frames, escalated, start)
            self._frames_escalated += len(escalated)
            self.obs.histogram("cascade.tier1_us", _US_BUCKETS).observe_many(
                [self._tier1_us] * len(escalated))
            self.obs.counter("cascade.escalated_frames").inc(len(escalated))
        self.obs.counter("cascade.frames").inc(len(screened))
        self.obs.histogram("cascade.tier0_us", _US_BUCKETS).observe_many(
            [self._tier0_us] * len(screened))
        self._frame_index = start + len(screened)
        drift_frame = self._drift_frame
        escalated_set = set(escalated)
        return [CascadeDecision(
            drift=drift_frame is not None and drift_frame <= start + offset,
            escalated=offset in escalated_set, suspicion=suspicion)
            for offset, suspicion in enumerate(suspicions)]

    def _run_tier1(self, frames: np.ndarray, escalated: List[int],
                   start: int) -> None:
        """Feed the escalated frames (block offsets) to tier 1 and latch
        the cascade's drift frame on tier 1's first drift verdict."""
        latched = self.tier1.drift_detected
        if len(escalated) == 1:
            verdicts = [self.tier1.observe(frames[escalated[0]])]
        else:
            verdicts = self.tier1.observe_batch(frames[escalated])
        if self._drift_frame is not None:
            return
        flags = [latched or bool(getattr(verdict, "drift", verdict))
                 for verdict in verdicts]
        # the latch itself, read after the call, covers the last frame
        flags[-1] = flags[-1] or self.tier1.drift_detected
        for offset, flag in zip(escalated, flags):
            if flag:
                self._drift_frame = start + offset
                return

    def reset(self) -> None:
        """Re-arm both tiers and the escalation machine."""
        self.tier0.reset()
        self.tier1.reset()
        self.policy.reset()
        self._frame_index = 0
        self._drift_frame = None
        self._frames_escalated = 0
        self._escalations = 0

    # ------------------------------------------------------------------
    # Snapshotable (when both tiers are)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        for label, tier in (("tier0", self.tier0), ("tier1", self.tier1)):
            if not isinstance(tier, Snapshotable):
                raise CheckpointError(
                    f"cascade {label} monitor {type(tier).__name__} is not "
                    f"Snapshotable; the cascade cannot be checkpointed")
        return {
            "frame_index": self._frame_index,
            "drift_frame": self._drift_frame,
            "frames_escalated": self._frames_escalated,
            "escalations": self._escalations,
            "policy": self.policy.state_dict(),
            "tier0": self.tier0.state_dict(),
            "tier1": self.tier1.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._frames_escalated = int(state["frames_escalated"])
        self._escalations = int(state["escalations"])
        self.policy.load_state_dict(state["policy"])
        self.tier0.load_state_dict(state["tier0"])
        self.tier1.load_state_dict(state["tier1"])
