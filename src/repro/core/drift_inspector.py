"""The Drift Inspector algorithm (paper Section 4.3, Algorithm 1).

``DriftInspector`` monitors a video stream frame by frame against the i.i.d.
reference sample ``Sigma_T`` of the currently deployed model's training
distribution:

1. embed the frame into the VAE latent space (optional -- callers may pass
   pre-embedded latents),
2. compute the KNN nonconformity score ``a_f`` against ``Sigma_T``
   (Algorithm 1 line 3),
3. convert it to a smoothed conformal p-value using the precomputed
   reference scores ``A_i`` (lines 4-9),
4. update the additive conformal martingale with the betting log-score
   (line 10) and apply the windowed Hoeffding-Azuma test (lines 12-14).

The inspector pinpoints the exact frame where drift is declared and exposes
the martingale trajectory for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.betting import (
    HistogramBetting,
    LogScore,
    MixtureBetting,
    PowerBetting,
)
from repro.core.martingale import (
    AdditiveMartingale,
    MartingaleState,
    MultiplicativeMartingale,
)
from repro.core.nonconformity import KNNDistance, NonconformityMeasure
from repro.core.pvalues import PValueCalculator, SortedScores
from repro.errors import ConfigurationError, EmptyReferenceError
from repro.obs.metrics import DEFAULT_P_BUCKETS
from repro.obs.recorder import NULL_RECORDER
from repro.rng import SeedLike, ensure_rng
from repro.sim.clock import SimulatedClock

#: Calibration scores ``A_i``: an array, or sorted once and shared.
Scores = Union[np.ndarray, SortedScores]


@dataclass
class DriftInspectorConfig:
    """Parameters of Algorithm 1 (paper defaults from Section 6.1)."""

    window: int = 3
    significance: float = 0.5
    k: int = 5
    betting_epsilon: float = 0.1
    p_floor: float = 6e-3
    cusum_reset: bool = True
    use_log_bound: bool = False
    two_sided: bool = True
    inductive_split: bool = True
    martingale: str = "additive"
    betting: str = "power"
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive: {self.window}")
        if not 0.0 < self.significance < 1.0:
            raise ConfigurationError(
                f"significance must be in (0, 1): {self.significance}")
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive: {self.k}")
        if not 0.0 < self.betting_epsilon < 1.0:
            raise ConfigurationError(
                f"betting_epsilon must be in (0, 1): {self.betting_epsilon}")
        if not 0.0 < self.p_floor < 1.0:
            raise ConfigurationError(
                f"p_floor must be in (0, 1): {self.p_floor}")
        if self.martingale not in ("additive", "multiplicative"):
            raise ConfigurationError(
                f"martingale must be 'additive' or 'multiplicative', "
                f"got {self.martingale!r}")
        if self.betting not in ("power", "mixture", "histogram"):
            raise ConfigurationError(
                f"betting must be 'power', 'mixture' or 'histogram', "
                f"got {self.betting!r}")


def calibrate_reference(reference: np.ndarray,
                        measure: NonconformityMeasure,
                        inductive_split: bool = True
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The Drift Inspector's scoring bag and calibration scores ``A_i``.

    With ``inductive_split`` (the default) ``Sigma_T`` is split in half:
    the first half is the KNN *bag*, the second half the calibration
    points whose scores against the bag form ``A_i``.  Incoming frames
    are scored against the same bag, so calibration and test scores are
    exchangeable by construction.  Precomputing leave-one-out scores over
    the full ``Sigma_T`` instead (the paper-literal mode, used when
    ``inductive_split=False`` or below 8 reference points, and by the
    inspector whenever ``reference_scores`` are supplied) biases test
    p-values toward 1: a test frame picks neighbours among ``n``
    candidates while each reference point only had ``n - 1``.

    A pure function of its arguments, so it can be computed once per
    reference and shared (see
    :meth:`~repro.core.selection.registry.ModelBundle.calibration`).
    """
    if inductive_split and reference.shape[0] >= 8:
        half = reference.shape[0] // 2
        bag, calibration = reference[:half], reference[half:]
        # score_batch is bit-identical to scoring point by point and
        # turns the O(N) construction loop into one broadcast
        return bag, measure.score_batch(calibration, bag)
    return reference, measure.reference_scores(reference)


@dataclass
class DriftDecision:
    """Per-frame output of the inspector."""

    frame_index: int
    nonconformity: float
    p_value: float
    martingale: float
    drift: bool


class DriftInspector:
    """Stateful per-frame drift monitor (Algorithm 1).

    Parameters
    ----------
    reference:
        ``Sigma_T`` -- i.i.d. latent samples of the deployed model's training
        distribution, shape ``(N, D)``.
    embedder:
        Optional object with an ``embed(frames) -> (N, D)`` method (the VAE).
        When given, :meth:`observe` accepts raw frames; otherwise it expects
        pre-embedded latent vectors.
    reference_scores:
        Optional precomputed ``A_i`` scores, as an array or as a shared
        :class:`~repro.core.pvalues.SortedScores`; computed leave-one-out
        from ``reference`` when omitted.
    clock:
        Optional :class:`~repro.sim.clock.SimulatedClock`; when given, each
        observation charges the paper-calibrated per-frame costs.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder`.  Observations are
        traced as ``di.observe`` / ``di.observe_batch`` spans (with nested
        embedding spans), counted, and their p-values folded into the
        ``di.p_value`` histogram.  Recording is passive -- it cannot alter
        a decision -- and defaults to the shared no-op recorder.
    calibration:
        Optional precomputed ``(bag, A_i)`` pair, exactly what
        :func:`calibrate_reference` returns for ``reference`` and this
        configuration's measure -- typically the bag of
        :meth:`~repro.core.selection.registry.ModelBundle.calibration`
        with ``A_i`` from
        :meth:`~repro.core.selection.registry.ModelBundle.sorted_scores`,
        both computed once per bundle.  It replaces the split, scoring
        and sorting every construction would otherwise redo.
    """

    def __init__(self, reference: np.ndarray,
                 config: Optional[DriftInspectorConfig] = None,
                 embedder: Optional[object] = None,
                 reference_scores: Optional[Scores] = None,
                 measure: Optional[NonconformityMeasure] = None,
                 clock: Optional[SimulatedClock] = None,
                 recorder: Optional[object] = None,
                 calibration: Optional[Tuple[np.ndarray, Scores]] = None
                 ) -> None:
        self.config = config or DriftInspectorConfig()
        self.reference = np.asarray(reference, dtype=np.float64)
        if self.reference.ndim != 2 or self.reference.shape[0] < 2:
            raise EmptyReferenceError(
                f"reference Sigma_T must be (N>=2, D), got {self.reference.shape}")
        self.embedder = embedder
        self.measure = measure or KNNDistance(k=self.config.k)
        if calibration is not None:
            self._bag, scores = calibration
        else:
            self._bag, scores = self._prepare_reference(self.reference,
                                                        reference_scores)
        rng = ensure_rng(self.config.seed)
        self._pvalue = PValueCalculator(scores, seed=rng)
        # dedicated rng for posterior-sampled embeddings: sharing the VAE's
        # internal stream would make detection depend on everything else
        # that touched the same VAE in the process
        self._embed_rng = np.random.default_rng(
            rng.integers(0, 2**63 - 1))
        self.martingale = self._build_martingale()
        self.clock = clock
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._c_frames = self.obs.counter("di.frames_observed")
        self._h_pvalue = self.obs.histogram("di.p_value", DEFAULT_P_BUCKETS)
        self._frame_index = 0
        self._drift_frame: Optional[int] = None

    # ------------------------------------------------------------------
    def _build_betting(self):
        if self.config.betting == "power":
            return PowerBetting(self.config.betting_epsilon)
        if self.config.betting == "mixture":
            return MixtureBetting()
        return HistogramBetting()

    def _build_martingale(self):
        """Algorithm 1's additive CUSUM machine (default) or the classic
        product martingale of Eq. 5 tested with Ville's inequality.

        The multiplicative machine's false-alarm probability over the whole
        stream is bounded by ``significance`` itself (Eq. 4), so pair it
        with a small value (e.g. 0.02), not the windowed test's r = 0.5.
        """
        if self.config.martingale == "multiplicative":
            return MultiplicativeMartingale(
                self._build_betting(), significance=self.config.significance)
        score = LogScore(self._build_betting(),
                         p_floor=self.config.p_floor)
        return AdditiveMartingale(
            score, window=self.config.window,
            significance=self.config.significance,
            cusum_reset=self.config.cusum_reset,
            use_log_bound=self.config.use_log_bound,
            max_history=max(4 * self.config.window, 64))

    # ------------------------------------------------------------------
    def _prepare_reference(self, reference: np.ndarray,
                           reference_scores: Optional[Scores]):
        """Build the scoring bag and calibration scores ``A_i`` (see
        :func:`calibrate_reference`); supplied ``reference_scores`` are
        leave-one-out scores over the whole of ``reference``."""
        if reference_scores is not None:
            if len(reference_scores) != reference.shape[0]:
                raise ConfigurationError(
                    f"reference_scores length {len(reference_scores)} != "
                    f"reference size {reference.shape[0]}")
            return reference, reference_scores
        return calibrate_reference(reference, self.measure,
                                   self.config.inductive_split)

    # ------------------------------------------------------------------
    @property
    def frames_processed(self) -> int:
        return self._frame_index

    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        """Index of the frame at which drift was first declared."""
        return self._drift_frame

    # ------------------------------------------------------------------
    def _embed_block(self, frames: np.ndarray) -> np.ndarray:
        """Embed a ``(B, ...)`` stack in one embedder call; returns (B, D).

        Prefers posterior *sampling* so the frames' embeddings follow the
        same distribution ``Sigma_T`` was drawn from (Section 4.2.2).  The
        result is bit-identical to ``B`` single-frame calls: the
        posterior-noise draws consume :attr:`_embed_rng` in the same order
        (numpy generators fill arrays from one bit stream), and the
        :mod:`repro.nn` layers infer batch-invariantly.  That is what lets
        the runtime kernel re-observe the clean prefix of a chunk in one
        call when it replays a drift flag (see
        :meth:`~repro.runtime.kernel.RuntimeKernel.step_batch`).
        """
        sample_embed = getattr(self.embedder, "sample_embed", None)
        if sample_embed is not None:
            try:
                latent = sample_embed(np.asarray(frames),
                                      rng=self._embed_rng)
            except TypeError:
                latent = sample_embed(np.asarray(frames))
        else:
            latent = self.embedder.embed(np.asarray(frames))
        return np.asarray(latent, dtype=np.float64).reshape(frames.shape[0], -1)

    def _embed(self, frame: np.ndarray) -> np.ndarray:
        if self.embedder is not None:
            if self.clock is not None:
                self.clock.charge("vae_encode")
            return self._embed_block(np.asarray(frame)[None, ...])[0]
        return np.asarray(frame, dtype=np.float64).reshape(-1)

    def observe(self, frame: np.ndarray) -> DriftDecision:
        """Process one frame; returns the per-frame decision.

        After drift has been declared the inspector keeps reporting
        ``drift=True`` until :meth:`reset` is called (the pipeline swaps the
        model and resets at that point).
        """
        with self.obs.span("di.observe"):
            return self._observe_traced(frame)

    def _observe_traced(self, frame: np.ndarray) -> DriftDecision:
        with self.obs.span("di.embed"):
            latent = self._embed(frame)
        if self.clock is not None:
            self.clock.charge("knn_nonconformity")
            self.clock.charge("martingale_update")
        a_f = self.measure.score(latent, self._bag)
        p = self._pvalue(a_f)
        self._c_frames.inc()
        self._h_pvalue.observe(p)
        # Two-sided transform: under exchangeability p is uniform, so
        # p' = 2 * min(p, 1 - p) is uniform too; it is small both when the
        # frame is too strange (p near 0) and when it is too conformal
        # (p near 1 -- out-of-distribution inputs routinely collapse near
        # the VAE's latent mean, landing closer to Sigma_T than Sigma_T's
        # own points are to each other).
        p_eff = 2.0 * min(p, 1.0 - p) if self.config.two_sided else p
        state: MartingaleState = self.martingale.update(p_eff)
        drift = state.drift or self.drift_detected
        decision = DriftDecision(frame_index=self._frame_index,
                                 nonconformity=a_f, p_value=p,
                                 martingale=state.value, drift=drift)
        if drift and self._drift_frame is None:
            self._drift_frame = self._frame_index
        self._frame_index += 1
        return decision

    def observe_batch(self,
                      frames: Sequence[np.ndarray]) -> List[DriftDecision]:
        """Process a window of frames at once; returns per-frame decisions.

        Vectorizes the whole per-frame loop: nonconformity scores are
        computed by broadcast KNN, conformal p-values by block counting with
        a block draw of tie-breaking uniforms, and the martingale by the
        batch CUSUM/cumsum update.  All three stages are **bit-identical**
        to calling :meth:`observe` once per frame -- the equivalence is
        enforced by property tests -- and both paths consume the RNG streams
        identically, so sequential and batched observation can be freely
        interleaved on one inspector.

        With an embedder the whole window is embedded in one call
        (:meth:`_embed_block`), bit-identical to per-frame embedding.  Any
        split of a window therefore observes exactly like the whole: the
        runtime kernel relies on this when a drift flag at position ``j``
        rolls a chunk back and it re-observes frames ``[0, j)`` with one
        call.
        """
        arr = np.asarray(frames, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        n = arr.shape[0]
        if n == 0:
            return []
        with self.obs.span("di.observe_batch"):
            return self._observe_batch_traced(arr, n)

    def _observe_batch_traced(self, arr: np.ndarray,
                              n: int) -> List[DriftDecision]:
        if self.embedder is not None:
            if self.clock is not None:
                self.clock.charge("vae_encode", times=n)
            with self.obs.span("di.embed_batch"):
                latents = self._embed_block(arr)
        else:
            latents = arr.reshape(n, -1)
        if self.clock is not None:
            self.clock.charge("knn_nonconformity", times=n)
            self.clock.charge("martingale_update", times=n)
        scores = self.measure.score_batch(latents, self._bag)
        ps = self._pvalue.batch(scores)
        self._c_frames.inc(n)
        self._h_pvalue.observe_many(ps)
        if self.config.two_sided:
            p_eff = 2.0 * np.minimum(ps, 1.0 - ps)
        else:
            p_eff = ps
        batch = self.martingale.update_batch(p_eff)
        # drift is sticky: once declared (now or previously), every later
        # decision reports drift=True until reset()
        flags = np.logical_or.accumulate(batch.drift)
        if self.drift_detected:
            flags = np.ones(n, dtype=bool)
        score_list, p_list = scores.tolist(), ps.tolist()
        value_list, flag_list = batch.values.tolist(), flags.tolist()
        decisions = []
        for i in range(n):
            drift = flag_list[i]
            decision = DriftDecision(
                frame_index=self._frame_index + i,
                nonconformity=score_list[i], p_value=p_list[i],
                martingale=value_list[i], drift=drift)
            if drift and self._drift_frame is None:
                self._drift_frame = decision.frame_index
            decisions.append(decision)
        self._frame_index += n
        return decisions

    def monitor(self, frames: Iterable[np.ndarray],
                stop_on_drift: bool = True) -> Iterator[DriftDecision]:
        """Generator over per-frame decisions for a frame iterable."""
        for frame in frames:
            decision = self.observe(frame)
            yield decision
            if stop_on_drift and decision.drift:
                return

    def frames_to_detect(self, frames: Iterable[np.ndarray],
                         limit: Optional[int] = None) -> Optional[int]:
        """Number of frames consumed before declaring drift.

        Returns ``None`` if drift was never declared within ``limit`` frames
        (or before the iterable was exhausted).
        """
        for i, frame in enumerate(frames):
            if limit is not None and i >= limit:
                return None
            decision = self.observe(frame)
            if decision.drift:
                return i + 1
        return None

    def state_dict(self) -> dict:
        """JSON-serializable dynamic state for checkpoint / restore.

        Covers everything that evolves during monitoring: frame counter,
        drift flag, martingale internals and both RNG streams (tie-breaking
        uniforms and posterior-sampling).  The reference sample / scores are
        *configuration* -- they are rebuilt from the deployed bundle on
        restore -- so they are not included.
        """
        return {"frame_index": self._frame_index,
                "drift_frame": self._drift_frame,
                "martingale": self.martingale.state_dict(),
                "pvalue_rng": self._pvalue.rng_state(),
                "embed_rng": self._embed_rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore dynamic state captured by :meth:`state_dict` into an
        inspector built with the same configuration and reference."""
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self.martingale.load_state_dict(state["martingale"])
        self._pvalue.set_rng_state(state["pvalue_rng"])
        self._embed_rng.bit_generator.state = state["embed_rng"]

    def reset(self, reference: Optional[np.ndarray] = None,
              reference_scores: Optional[Scores] = None) -> None:
        """Restart monitoring, optionally against a new ``Sigma_T``.

        Called by the pipeline after a model swap: the new deployed model's
        reference sample becomes the null distribution.
        """
        if reference is not None:
            reference = np.asarray(reference, dtype=np.float64)
            if reference.ndim != 2 or reference.shape[0] < 2:
                raise EmptyReferenceError(
                    f"reference Sigma_T must be (N>=2, D), got {reference.shape}")
            self.reference = reference
            self._bag, scores = self._prepare_reference(reference,
                                                        reference_scores)
            # rebuild the RNG streams exactly as __init__ does so an
            # in-place reference swap is indistinguishable from constructing
            # a fresh inspector -- previously the tie-breaking stream
            # restarted one draw ahead of a fresh inspector's and the
            # posterior-sampling stream was left mid-flight, so a swapped
            # inspector and a rebuilt one (e.g. after checkpoint restore,
            # or the pipeline's _deploy) diverged
            rng = ensure_rng(self.config.seed)
            self._pvalue = PValueCalculator(scores, seed=rng)
            self._embed_rng = np.random.default_rng(
                rng.integers(0, 2**63 - 1))
        self.martingale = self._build_martingale()
        self._drift_frame = None
        self._frame_index = 0
