"""ODIN-Detect: clustering-based drift detection.

As frames arrive, each is assigned to the permanent cluster whose expanded
density band accepts it; frames no permanent cluster accepts grow a
*temporary* cluster.  Once the temporary cluster's diagonal-Gaussian
distribution stabilises -- the KL divergence between its state before and
after adding a frame drops below ``kl_threshold = 0.007`` (the published
constant) after a minimum number of members -- the cluster is promoted to
permanent and a drift is declared.

This is slower than DI by construction: the temporary cluster must
accumulate enough members for its Gaussian to stabilise, whereas DI's
martingale reacts to the first few strange p-values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.odin.clusters import OdinCluster, diagonal_gaussian_kl
from repro.errors import ConfigurationError
from repro.sim.clock import SimulatedClock


@dataclass
class OdinConfig:
    """ODIN constants (published values) plus assignment tolerances."""

    delta: float = 0.5
    kl_threshold: float = 0.007
    min_temp_size: int = 22
    assignment_tolerance: float = 0.15
    temp_timeout: Optional[int] = 150
    min_temp_density: float = 0.5

    def __post_init__(self) -> None:
        if self.kl_threshold <= 0:
            raise ConfigurationError(
                f"kl_threshold must be positive: {self.kl_threshold}")
        if self.min_temp_size < 3:
            raise ConfigurationError(
                f"min_temp_size must be >= 3: {self.min_temp_size}")
        if not 0.0 <= self.min_temp_density <= 1.0:
            raise ConfigurationError(
                f"min_temp_density must be in [0, 1]: {self.min_temp_density}")


@dataclass
class OdinDecision:
    """Per-frame outcome of ODIN-Detect."""

    frame_index: int
    assigned_cluster: Optional[str]
    drift: bool
    promoted_cluster: Optional[str] = None


class OdinDetect:
    """Clustering-based drift detector."""

    def __init__(self, config: Optional[OdinConfig] = None,
                 embedder: Optional[object] = None,
                 clock: Optional[SimulatedClock] = None) -> None:
        self.config = config or OdinConfig()
        self.embedder = embedder
        self.clock = clock
        self.clusters: List[OdinCluster] = []
        self.temp: Optional[OdinCluster] = None
        self._temp_created_at = 0
        self._temp_counter = 0
        self._frame_index = 0
        self._drift_frame: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        return self._drift_frame

    def seed_cluster(self, name: str, embeddings: np.ndarray,
                     model_name: Optional[str] = None) -> OdinCluster:
        """Create a permanent cluster from a provisioned model's data."""
        cluster = OdinCluster(name, delta=self.config.delta,
                              model_name=model_name)
        cluster.bulk_add(np.asarray(embeddings, dtype=np.float64))
        self.clusters.append(cluster)
        return cluster

    # ------------------------------------------------------------------
    def _embed(self, frame: np.ndarray) -> np.ndarray:
        if self.embedder is not None:
            if self.clock is not None:
                self.clock.charge("odin_embed")
            embed = getattr(self.embedder, "augmented_embed",
                            self.embedder.embed)
            latent = embed(np.asarray(frame)[None, ...])
            return np.asarray(latent, dtype=np.float64).reshape(-1)
        return np.asarray(frame, dtype=np.float64).reshape(-1)

    def observe(self, frame: np.ndarray) -> OdinDecision:
        """Process one frame (assignment -> temp cluster -> promotion)."""
        if (self.temp is not None and self.config.temp_timeout is not None
                and self._frame_index - self._temp_created_at
                > self.config.temp_timeout):
            # the temporary cluster never stabilised within its age budget:
            # it collected scattered in-distribution outliers, not a drift
            self.temp = None
        embedding = self._embed(frame)
        if self.clock is not None:
            self.clock.charge("odin_band_update")
        assigned = None
        for cluster in self.clusters:
            if cluster.accepts(embedding, self.config.assignment_tolerance):
                cluster.add(embedding)
                assigned = cluster.name
                break
        decision = OdinDecision(frame_index=self._frame_index,
                                assigned_cluster=assigned, drift=False)
        if assigned is None:
            decision = self._handle_unassigned(embedding, decision)
        self._frame_index += 1
        return decision

    def _handle_unassigned(self, embedding: np.ndarray,
                           decision: OdinDecision) -> OdinDecision:
        if self.temp is None:
            self._temp_counter += 1
            self.temp = OdinCluster(f"temp_{self._temp_counter}",
                                    delta=self.config.delta)
            self._temp_created_at = self._frame_index
        before = None
        if self.temp.count >= 2:
            before = self.temp.gaussian_state()
        self.temp.add(embedding)
        decision.assigned_cluster = self.temp.name
        if (before is not None and self.temp.count >= self.config.min_temp_size):
            if self.clock is not None:
                self.clock.charge("odin_kl_check")
            after = self.temp.gaussian_state()
            kl = diagonal_gaussian_kl(before[0], before[1], after[0], after[1])
            age = self._frame_index - self._temp_created_at + 1
            density = self.temp.count / max(age, 1)
            # density gate: a genuine post-drift stream fills the temporary
            # cluster on nearly every frame, whereas scattered
            # in-distribution outliers trickle in slowly -- adding one such
            # point barely moves a 20+-member Gaussian, so the KL test alone
            # would promote any sufficiently old temp cluster
            if (kl < self.config.kl_threshold
                    and density >= self.config.min_temp_density):
                # temporary cluster stabilised: promote and declare drift
                promoted = self.temp
                promoted.name = f"cluster_{len(self.clusters)}"
                promoted.model_name = promoted.name
                self.clusters.append(promoted)
                self.temp = None
                decision.drift = True
                decision.promoted_cluster = promoted.name
                if self._drift_frame is None:
                    self._drift_frame = decision.frame_index
        return decision

    def frames_to_detect(self, frames, limit: Optional[int] = None) -> Optional[int]:
        """Frames consumed before declaring drift (paper's Figure 3 metric)."""
        for i, frame in enumerate(frames):
            if limit is not None and i >= limit:
                return None
            if self.observe(frame).drift:
                return i + 1
        return None

    def reset_detection(self) -> None:
        """Clear the drift flag and temporary cluster; keep permanent
        clusters (ODIN's clusters persist across drifts)."""
        self.temp = None
        self._drift_frame = None

    def reset(self) -> None:
        """Alias for :meth:`reset_detection` (the
        :class:`~repro.runtime.protocols.DriftMonitor` contract)."""
        self.reset_detection()

    # ------------------------------------------------------------------
    # Snapshotable: cluster set + temp-cluster bookkeeping.  ODIN exposes
    # no ``observe_batch``, so the kernel still drives it frame by frame;
    # the snapshot exists for checkpoint/restore and crash recovery.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Capture detection state."""
        return {
            "frame_index": self._frame_index,
            "drift_frame": self._drift_frame,
            "temp_created_at": self._temp_created_at,
            "temp_counter": self._temp_counter,
            "clusters": [cluster.state_dict() for cluster in self.clusters],
            "temp": None if self.temp is None else self.temp.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` into a detector
        built with the same configuration."""
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._temp_created_at = int(state["temp_created_at"])
        self._temp_counter = int(state["temp_counter"])
        self.clusters = [OdinCluster.from_state(entry)
                         for entry in state["clusters"]]
        temp = state["temp"]
        self.temp = None if temp is None else OdinCluster.from_state(temp)
