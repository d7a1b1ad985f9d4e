"""Model Selection Based on Input (paper Section 5.1, Algorithm 2).

MSBI compares the post-drift frames with the i.i.d. sample ``Sigma_{T_i}``
of each provisioned model using the Drift Inspector at significance ``r``:

- if DI rejects exchangeability for *every* model, the data come from a
  previously unseen distribution -> :class:`NovelDistribution`;
- if exactly one model survives, deploy it;
- if several survive, escalate the significance level by ``r_step`` and
  repeat the test over the surviving candidates until one remains (or the
  escalation budget is exhausted, in which case ties break by lowest mean
  nonconformity -- the closest surviving reference distribution).

MSBI is fully unsupervised: it needs only each bundle's VAE and ``Sigma_T``,
never labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.core.selection.registry import ModelBundle, ModelRegistry, NovelDistribution
from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.sim.clock import SimulatedClock


@dataclass
class MSBIConfig:
    """Parameters of Algorithm 2 (paper defaults from Section 6.2)."""

    window_size: int = 10          # W_N: frames evaluated per round
    martingale_window: int = 3     # W
    significance: float = 0.5      # initial r
    r_step: float = 0.1
    max_significance: float = 0.95
    k: int = 5
    betting_epsilon: float = 0.1
    batched_testing: bool = True   # vectorized per-bundle DI testing
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ConfigurationError(
                f"window_size must be positive: {self.window_size}")
        if not 0.0 < self.significance < 1.0:
            raise ConfigurationError(
                f"significance must be in (0, 1): {self.significance}")
        if self.r_step <= 0:
            raise ConfigurationError(f"r_step must be positive: {self.r_step}")


@dataclass
class MSBIReport:
    """Diagnostics from one selection."""

    selected: str
    rounds: int
    frames_examined: int
    drift_flags: Dict[str, bool]


class MSBI:
    """Model Selection Based on Input."""

    def __init__(self, registry: ModelRegistry,
                 config: Optional[MSBIConfig] = None,
                 clock: Optional[SimulatedClock] = None) -> None:
        if len(registry) == 0:
            raise ConfigurationError("MSBI needs a non-empty model registry")
        self.registry = registry
        self.config = config or MSBIConfig()
        self.clock = clock
        self.last_report: Optional[MSBIReport] = None

    # ------------------------------------------------------------------
    def _test_bundle(self, bundle: ModelBundle, frames: np.ndarray,
                     significance: float) -> bool:
        """Run DI over ``frames`` against the bundle; True if drift declared."""
        di_config = DriftInspectorConfig(
            window=self.config.martingale_window,
            significance=significance,
            k=self.config.k,
            betting_epsilon=self.config.betting_epsilon,
            seed=self.config.seed)
        inspector = DriftInspector(
            bundle.sigma, config=di_config, embedder=bundle.vae,
            calibration=(bundle.calibration(di_config.k)[0],
                         bundle.sorted_scores(di_config.k)))
        if self.clock is not None:
            self.clock.charge("msbi_model_frame", times=frames.shape[0])
        if self.config.batched_testing:
            # vectorized window test: the whole window is scored in one
            # observe_batch call (bit-identical to the sequential loop),
            # and the sticky drift flag makes any(...) agree with the
            # loop's early-stop verdict
            decisions = inspector.observe_batch(frames)
            return any(d.drift for d in decisions)
        drift = False
        for frame in frames:
            if inspector.observe(frame).drift:
                drift = True
                break
        return drift

    def select(self, frames: np.ndarray,
               candidates: Optional[List[str]] = None) -> str:
        """Select the model to process the post-drift stream.

        ``frames`` is the window ``W_N`` of raw frames collected after the
        drift.  Returns the selected bundle name or raises
        :class:`NovelDistribution` when every model rejects the data.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.shape[0] == 0:
            raise ConfigurationError("MSBI needs at least one post-drift frame")
        window = frames[: self.config.window_size]
        names = candidates if candidates is not None else self.registry.names()
        significance = self.config.significance
        rounds = 0
        frames_examined = 0
        drift_flags: Dict[str, bool] = {}
        while True:
            rounds += 1
            drift_flags = {}
            for name in names:
                bundle = self.registry.get(name)
                drift_flags[name] = self._test_bundle(bundle, window, significance)
                frames_examined += window.shape[0]
            survivors = [n for n, drifted in drift_flags.items() if not drifted]
            if not survivors:
                self.last_report = MSBIReport(
                    selected="", rounds=rounds,
                    frames_examined=frames_examined, drift_flags=drift_flags)
                raise NovelDistribution(
                    "MSBI: every provisioned model rejected the post-drift data",
                    diagnostics={"drift_flags": drift_flags,
                                 "significance": significance})
            if len(survivors) == 1:
                self.last_report = MSBIReport(
                    selected=survivors[0], rounds=rounds,
                    frames_examined=frames_examined, drift_flags=drift_flags)
                return survivors[0]
            next_significance = significance + self.config.r_step
            if next_significance >= self.config.max_significance:
                # escalation budget exhausted: break the tie by picking the
                # surviving reference distribution closest to the new data
                chosen = self._closest(survivors, window)
                self.last_report = MSBIReport(
                    selected=chosen, rounds=rounds,
                    frames_examined=frames_examined, drift_flags=drift_flags)
                return chosen
            significance = next_significance
            names = survivors

    def _closest(self, names: List[str], frames: np.ndarray) -> str:
        """Tie-break: lowest mean nonconformity of the window's frames."""
        best_name = names[0]
        best_score = float("inf")
        for name in names:
            bundle = self.registry.get(name)
            latents = bundle.embed(frames)
            centroid = bundle.sigma.mean(axis=0)
            score = float(np.sqrt(((latents - centroid) ** 2).sum(axis=1)).mean())
            if score < best_score:
                best_score = score
                best_name = name
        return best_name
