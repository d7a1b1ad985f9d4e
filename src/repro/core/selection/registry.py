"""Model registry: the collection of provisioned per-distribution models.

Each known distribution ``i`` carries the full bundle Table 1 describes:
training data ``T_i``, its VAE ``A_{T_i}``, the i.i.d. samples
``Sigma_{T_i}``, the precomputed nonconformity scores ``A_i``, the query
model ``M_i``, and (for MSBO) the deep ensemble ``{M_{i,l}}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.drift_inspector import calibrate_reference
from repro.core.nonconformity import KNNDistance
from repro.core.pvalues import SortedScores
from repro.errors import RegistryError


class NovelDistribution(Exception):
    """Raised by a selector when no provisioned model fits the new data.

    Signals the pipeline to invoke ``trainNewModel`` (Section 5.4).  Derives
    from ``Exception`` directly (not :class:`~repro.errors.ReproError`)
    because it is a control-flow signal, not a failure.
    """

    def __init__(self, message: str = "no provisioned model fits the new data",
                 diagnostics: Optional[dict] = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ModelBundle:
    """Everything provisioned for one known distribution.

    Attributes
    ----------
    name:
        Distribution identifier (e.g. ``"night"`` or ``"angle_2"``).
    sigma:
        ``Sigma_{T_i}`` -- i.i.d. latent samples from the VAE, ``(N, D)``.
    reference_scores:
        ``A_i`` -- precomputed nonconformity scores of ``sigma``'s elements.
    vae:
        The distribution's variational autoencoder (``embed``/``sample_latents``).
    model:
        The deployed query model (``predict`` / ``predict_proba``).
    ensemble:
        Deep ensemble of L models for MSBO uncertainty (may be ``None`` when
        only DI / MSBI are used -- MSBI is fully unsupervised).
    training_frames / training_labels:
        Optional retained training data (used by MSBO calibration, and as
        the tier-0 screen's pixel reference).
    """

    name: str
    sigma: np.ndarray
    reference_scores: np.ndarray
    vae: Optional[object] = None
    model: Optional[object] = None
    ensemble: Optional[object] = None
    training_frames: Optional[np.ndarray] = None
    training_labels: Optional[np.ndarray] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    _calibrations: Dict[Tuple[int, bool], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _sorted_scores: Dict[Optional[Tuple[int, bool]], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        self.reference_scores = np.asarray(self.reference_scores,
                                           dtype=np.float64)
        if self.sigma.ndim != 2:
            raise RegistryError(
                f"bundle {self.name!r}: sigma must be (N, D), "
                f"got {self.sigma.shape}")
        if self.reference_scores.shape[0] != self.sigma.shape[0]:
            raise RegistryError(
                f"bundle {self.name!r}: reference_scores length "
                f"{self.reference_scores.shape[0]} != sigma size "
                f"{self.sigma.shape[0]}")

    def calibration(self, k: int, inductive_split: bool = True
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The Drift Inspector's ``(bag, A_i)`` for ``sigma`` under a
        ``k``-NN measure (:func:`~repro.core.drift_inspector.
        calibrate_reference`), computed once per ``k`` and split mode.

        Every deploy and every MSBI candidate test builds an inspector
        against this bundle; they all share the same read-only arrays,
        so their p-values are exactly those of a fresh calibration.
        Reassigning ``sigma`` invalidates the memo.
        """
        key = (int(k), bool(inductive_split))
        cached = self._calibrations.get(key)
        if cached is None or cached[0] is not self.sigma:
            bag, scores = calibrate_reference(self.sigma, KNNDistance(k),
                                              inductive_split)
            bag.flags.writeable = False
            scores.flags.writeable = False
            cached = (self.sigma, (bag, scores))
            self._calibrations[key] = cached
        return cached[1]

    def sorted_scores(self, k: Optional[int] = None,
                      inductive_split: bool = True) -> SortedScores:
        """``A_i`` sorted once for the p-value search
        (:class:`~repro.core.pvalues.SortedScores`): the scores of
        :meth:`calibration` for ``k`` and ``inductive_split``, or with
        ``k=None`` the bundle's own ``reference_scores``.

        Memoized beside :meth:`calibration`, so every inspector built
        from this bundle shares one read-only instance; replacing the
        scores it was sorted from (reassigning ``sigma`` or
        ``reference_scores``) rebuilds it.
        """
        if k is None:
            key, scores = None, self.reference_scores
        else:
            key = (int(k), bool(inductive_split))
            scores = self.calibration(k, inductive_split)[1]
        cached = self._sorted_scores.get(key)
        if cached is None or cached[0] is not scores:
            cached = (scores, SortedScores(scores))
            self._sorted_scores[key] = cached
        return cached[1]

    def embed(self, frames: np.ndarray) -> np.ndarray:
        """Embed raw frames with this bundle's VAE (identity without one).

        Uses posterior sampling when available, matching how ``sigma`` was
        generated (see :meth:`repro.nn.vae.VAE.sample_embed`).
        """
        arr = np.asarray(frames, dtype=np.float64)
        if self.vae is None:
            return arr.reshape(arr.shape[0], -1) if arr.ndim > 2 else arr
        sample_embed = getattr(self.vae, "sample_embed", None)
        if sample_embed is not None:
            return np.asarray(sample_embed(arr), dtype=np.float64)
        return np.asarray(self.vae.embed(arr), dtype=np.float64)


class ModelRegistry:
    """Ordered mapping of distribution name to :class:`ModelBundle`."""

    def __init__(self, bundles: Optional[List[ModelBundle]] = None) -> None:
        self._bundles: Dict[str, ModelBundle] = {}
        for bundle in bundles or []:
            self.add(bundle)

    def add(self, bundle: ModelBundle) -> None:
        """Register a bundle; duplicate names are rejected."""
        if bundle.name in self._bundles:
            raise RegistryError(f"duplicate model bundle {bundle.name!r}")
        self._bundles[bundle.name] = bundle

    def replace(self, bundle: ModelBundle) -> None:
        """Register or overwrite a bundle (used by retraining)."""
        self._bundles[bundle.name] = bundle

    def get(self, name: str) -> ModelBundle:
        try:
            return self._bundles[name]
        except KeyError:
            raise RegistryError(
                f"unknown model bundle {name!r}; known: {self.names()}"
            ) from None

    def remove(self, name: str) -> ModelBundle:
        if name not in self._bundles:
            raise RegistryError(f"unknown model bundle {name!r}")
        return self._bundles.pop(name)

    def names(self) -> List[str]:
        return list(self._bundles)

    def __contains__(self, name: str) -> bool:
        return name in self._bundles

    def __len__(self) -> int:
        return len(self._bundles)

    def __iter__(self) -> Iterator[ModelBundle]:
        return iter(self._bundles.values())
