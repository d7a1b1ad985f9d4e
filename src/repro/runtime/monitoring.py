"""Monitoring stage: a uniform harness over any :class:`DriftMonitor`.

:class:`MonitorStage` adapts the kernel to whatever detector backs the
session -- the paper's :class:`~repro.core.drift_inspector.DriftInspector`,
ODIN's :class:`~repro.baselines.odin.detect.OdinDetect`, or a classical
detector from :mod:`repro.baselines.statistical` -- by normalizing two
axes of variation:

- **decisions**: ``observe`` may return a plain ``bool`` or a decision
  object with a ``drift`` attribute; :meth:`drift_of` reads either.
- **batching**: monitors that implement ``observe_batch`` *and*
  :class:`~repro.runtime.protocols.Snapshotable` support the optimistic
  vectorized path (snapshot, observe the chunk at once, and on a drift
  flag roll back and re-observe the frames before it in one call).  Their
  ``observe_batch`` must match ``observe`` frame by frame over any split
  of a chunk.  Anything else reports ``supports_rollback = False`` and the
  kernel drives it frame by frame, so batched execution stays bit-identical
  to sequential for every monitor.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import CheckpointError
from repro.runtime.protocols import DriftMonitor, Snapshotable


class MonitorStage:
    """Wrap one :class:`DriftMonitor` for the kernel's monitoring loop."""

    def __init__(self, monitor: DriftMonitor) -> None:
        self.monitor = monitor
        #: Whether the optimistic batched path can run on this monitor.
        #: Fixed by the monitor's type, so it is computed once: the
        #: ``isinstance`` against a runtime-checkable protocol costs
        #: microseconds, and the kernel asks before every chunk.
        self.supports_rollback = (
            callable(getattr(monitor, "observe_batch", None))
            and isinstance(monitor, Snapshotable))

    # ------------------------------------------------------------------
    @staticmethod
    def drift_of(decision: object) -> bool:
        """Normalize a monitor decision (bool or ``.drift`` carrier)."""
        return bool(getattr(decision, "drift", decision))

    @property
    def drift_detected(self) -> bool:
        return bool(self.monitor.drift_detected)

    @property
    def drift_frame(self) -> Optional[int]:
        return self.monitor.drift_frame

    # ------------------------------------------------------------------
    def observe(self, pixels: np.ndarray) -> bool:
        """Feed one admitted frame; returns the normalized drift flag."""
        decision = self.monitor.observe(pixels)
        return bool(getattr(decision, "drift", decision))

    def observe_batch(self, pixels: np.ndarray) -> List[bool]:
        """Feed a ``(B, ...)`` stack; returns per-frame drift flags."""
        decisions = self.monitor.observe_batch(pixels)
        return [self.drift_of(decision) for decision in decisions]

    def reset(self) -> None:
        self.monitor.reset()

    # ------------------------------------------------------------------
    # optimistic-rollback snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the monitor for a possible batched-chunk rollback."""
        return self.monitor.state_dict()

    def restore(self, snapshot: dict) -> None:
        self.monitor.load_state_dict(snapshot)

    # ------------------------------------------------------------------
    # Snapshotable passthrough (checkpoint / fleet recovery)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        if not isinstance(self.monitor, Snapshotable):
            raise CheckpointError(
                f"monitor {type(self.monitor).__name__} is not Snapshotable "
                f"(no state_dict/load_state_dict); sessions backed by it "
                f"cannot be checkpointed")
        return self.monitor.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.monitor.load_state_dict(state)
