"""The staged runtime kernel behind every execution substrate.

:class:`RuntimeKernel` is the paper's Figure-1 loop as an explicit state
machine over four composable stages:

1. **admission** (:class:`~repro.runtime.admission.AdmissionController`) --
   frame guard, retries, circuit breaker, fault ledger;
2. **monitoring** (:class:`~repro.runtime.monitoring.MonitorStage`) -- any
   :class:`~repro.runtime.protocols.DriftMonitor` (Drift Inspector by
   default, ODIN or a statistical detector via ``monitor_factory``);
3. **adaptation** (:class:`~repro.runtime.adaptation.AdaptationPolicy`) --
   MSBI / MSBO selection, novel-distribution training, degraded fallback;
4. **emission** (:class:`~repro.runtime.emission.EmissionStage`) -- frame
   records, detection log, invocation accounting.

Sequential ``process``, ``process_batched``, the ``repro.parallel`` fleet,
the ``repro.serve`` scheduler, and the experiments runner all drive this
one kernel, so the bit-exactness contract (same records, detections,
invocations, fault stats, and simulated clock for any chunking) is proved
in one place.  The kernel is itself
:class:`~repro.runtime.protocols.Snapshotable`: ``state_dict`` /
``load_state_dict`` capture a whole live session, backing both the
checkpoint archive and the fleet's crash recovery.

:class:`~repro.core.pipeline.DriftAwareAnalytics` remains the public
façade over this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.core.selection.registry import ModelRegistry, NovelDistribution
from repro.core.selection.trainer import ModelTrainer
from repro.errors import CheckpointError, ConfigurationError
from repro.faults.guard import GUARD_POLICIES
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.admission import AdmissionController
from repro.runtime.adaptation import AdaptationPolicy
from repro.runtime.emission import EmissionStage, FrameRecord, PipelineResult
from repro.runtime.monitoring import MonitorStage
from repro.runtime.protocols import DriftMonitor
from repro.sim.clock import SimulatedClock
from repro.video.frames import pixels_of


@dataclass
class PipelineConfig:
    """Pipeline-level knobs.

    ``selection_window`` is the number of post-drift frames buffered for the
    selector (W_N for MSBI, W_T for MSBO); ``training_budget`` overrides the
    trainer's frame collection budget when a novel distribution appears.

    Fault tolerance: ``frame_policy`` governs the
    :class:`~repro.faults.guard.FrameGuard` at the pipeline boundary
    (``"raise"`` fails fast on invalid frames, ``"skip"`` quarantines them,
    ``"repair"`` imputes from the last good frame); selector / trainer calls
    get ``max_retries`` retries with ``retry_backoff_ms`` simulated-clock
    backoff, and ``breaker_threshold`` consecutive resolution failures trip
    a circuit breaker that pins the nearest provisioned model instead of
    crashing.
    """

    selection_window: int = 10
    training_budget: Optional[int] = None
    cooldown_frames: int = 25
    frame_policy: str = "raise"
    max_retries: int = 2
    retry_backoff_ms: float = 50.0
    breaker_threshold: int = 3
    drift_inspector: DriftInspectorConfig = field(
        default_factory=DriftInspectorConfig)

    def __post_init__(self) -> None:
        if self.selection_window <= 0:
            raise ConfigurationError(
                f"selection_window must be positive: {self.selection_window}")
        if self.cooldown_frames < 0:
            raise ConfigurationError(
                f"cooldown_frames must be non-negative: {self.cooldown_frames}")
        if self.frame_policy not in GUARD_POLICIES:
            raise ConfigurationError(
                f"frame_policy must be one of {GUARD_POLICIES}, "
                f"got {self.frame_policy!r}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative: {self.max_retries}")
        if self.retry_backoff_ms < 0:
            raise ConfigurationError(
                f"retry_backoff_ms must be non-negative: "
                f"{self.retry_backoff_ms}")
        if self.breaker_threshold <= 0:
            raise ConfigurationError(
                f"breaker_threshold must be positive: "
                f"{self.breaker_threshold}")


class RuntimeKernel:
    """The Figure-1 state machine over the four runtime stages.

    Parameters mirror the :class:`~repro.core.pipeline.DriftAwareAnalytics`
    façade; ``monitor_factory`` additionally lets a caller back the
    monitoring stage with any :class:`DriftMonitor` -- it is called with
    the freshly deployed :class:`ModelBundle` on construction and after
    every model swap, and defaults to building the paper's Drift Inspector
    against the bundle's VAE and reference sample.
    """

    _MODE_MONITOR = "monitor"
    _MODE_SELECT = "select-buffer"
    _MODE_TRAIN = "train-buffer"

    def __init__(self, registry: ModelRegistry, initial_model: str,
                 selector: object,
                 annotator: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 trainer: Optional[ModelTrainer] = None,
                 config: Optional[PipelineConfig] = None,
                 clock: Optional[SimulatedClock] = None,
                 recorder: Optional[object] = None,
                 monitor_factory: Optional[
                     Callable[[object], DriftMonitor]] = None) -> None:
        self.registry = registry
        self.config = config or PipelineConfig()
        self.clock = clock or SimulatedClock()
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.obs.bind_clock(self.clock)
        self.emission = EmissionStage(self.clock, self.obs)
        self.admission = AdmissionController(self.config, self.clock,
                                             self.obs)
        self.adaptation = AdaptationPolicy(self, selector, annotator, trainer)
        self.monitor_factory = monitor_factory or self._default_monitor
        self.deploy(initial_model)

    def _default_monitor(self, bundle) -> DriftInspector:
        config = self.config.drift_inspector
        k, split = config.k, config.inductive_split
        return DriftInspector(
            bundle.sigma,
            config=config,
            embedder=bundle.vae,
            clock=self.clock,
            recorder=self.obs,
            calibration=(bundle.calibration(k, split)[0],
                         bundle.sorted_scores(k, split)))

    # ------------------------------------------------------------------
    @property
    def deployed_model(self) -> str:
        return self.deployed.name

    def deploy(self, name: str) -> None:
        """Swap the deployed bundle and rebuild the monitoring stage."""
        self.deployed = self.registry.get(name)
        self.monitor = MonitorStage(self.monitor_factory(self.deployed))

    def predict_degraded(self, pixels: object) -> int:
        """Serve one frame on the degraded pass: classify with the
        deployed model only.  No monitor, RNG, clock or emission state is
        touched, so interleaving degraded predictions with :meth:`step`
        cannot perturb the full path's decisions (the serving layer's
        bit-identity property depends on this isolation)."""
        batch = np.asarray(pixels, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, ...]
        self.obs.counter("pipeline.degraded_predictions").inc()
        return int(self.deployed.model.predict(batch)[0])

    def screen_degraded(self, pixels: object) -> Optional[float]:
        """Tier-0 suspicion for a frame served on the degraded pass.

        When the session's monitor offers a stateless ``peek_suspicion``
        (the tier-0 screen, or a :class:`~repro.cascade.CascadeMonitor`
        delegating to its tier 0), degraded frames can still be screened
        for drift without running the monitor: the peek touches no
        monitor, RNG or clock state, preserving the same isolation
        contract as :meth:`predict_degraded`.  Returns ``None`` when the
        deployed monitor offers no peek.
        """
        peek = getattr(self.monitor.monitor, "peek_suspicion", None)
        if peek is None:
            return None
        suspicion = peek(np.asarray(pixels, dtype=np.float64))
        if suspicion is None:
            return None
        self.obs.counter("pipeline.degraded_screened").inc()
        return float(suspicion)

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin a streaming session (push-based processing via
        :meth:`step` / :meth:`flush`)."""
        self.emission.reset()
        self.admission.reset()
        self._start_ms = self.clock.elapsed_ms
        self.obs.event("session_start", model=self.deployed.name,
                       registry_size=len(self.registry))
        self.obs.gauge("pipeline.registry_size").set(len(self.registry))
        self._buffer: List[object] = []
        self._mode = self._MODE_MONITOR
        self._frames_since_swap = self.config.cooldown_frames  # armed

    @property
    def started(self) -> bool:
        return hasattr(self, "_mode")

    def _resolve_buffer(self, selected: Optional[str] = None,
                        novel_hint: bool = False) -> List[FrameRecord]:
        """Deploy ``selected`` (running selection/training if not already
        decided) and emit the buffered frames under the new model."""
        items = self._buffer
        self._buffer = []
        window = np.stack([pixels_of(entry) for entry in items])
        previous = self.deployed.name
        novel = novel_hint
        with self.obs.span("selection.resolve"):
            if selected is None:
                selected, novel = self.adaptation.decide(items, window,
                                                         novel_hint)
            self.emission.record_detection(previous, selected, novel,
                                           len(items))
            self.deploy(selected)
            self.obs.event("model_deployed", model=selected,
                           registry_size=len(self.registry))
            self.obs.gauge("pipeline.registry_size").set(len(self.registry))
        self._mode = self._MODE_MONITOR
        self._frames_since_swap = 0
        return self.emission.emit_batch(self.deployed, window)

    def step(self, item: object) -> List[FrameRecord]:
        """Push one frame; returns the records it emitted (possibly none
        while post-drift frames are being buffered for selection or
        training, or when the guard quarantined the frame)."""
        if not self.started:
            self.start()
        admitted = self.admission.admit(item)
        if admitted is None:
            return []
        return self._step_admitted(*admitted)

    def _step_admitted(self, item: object,
                       pixels: np.ndarray) -> List[FrameRecord]:
        """The post-guard remainder of :meth:`step` (mode dispatch)."""
        admission = self.admission
        if self._mode == self._MODE_SELECT:
            self._buffer.append(item)
            if len(self._buffer) < self.config.selection_window:
                return []
            # window full: try selection; a novel distribution with a
            # trainer keeps buffering up to the training budget
            window = np.stack([pixels_of(e) for e in self._buffer])
            if admission.breaker.is_open:
                admission.faults.breaker_fallbacks += 1
                return self._resolve_buffer(
                    selected=self.adaptation.fallback_model(window))
            try:
                selected = admission.with_retries(
                    lambda: self.adaptation.try_select(self._buffer, window))
            except NovelDistribution:
                if self.adaptation.trainer is not None:
                    self._mode = self._MODE_TRAIN
                    return []
                # no trainer: degrade to the nearest provisioned model
                return self._resolve_buffer(
                    selected=self.adaptation.fallback_model(window),
                    novel_hint=True)
            except Exception:
                admission.faults.selection_failures += 1
                admission.breaker.record_failure()
                return self._resolve_buffer(
                    selected=self.adaptation.fallback_model(window))
            admission.breaker.record_success()
            return self._resolve_buffer(selected=selected)
        if self._mode == self._MODE_TRAIN:
            self._buffer.append(item)
            if len(self._buffer) < self.adaptation.training_budget():
                return []
            return self._resolve_buffer(novel_hint=True)
        # monitoring
        drift = self.monitor.observe(pixels)
        if drift and (self._frames_since_swap
                      < self.config.cooldown_frames):
            # residual transient right after a model swap: the fresh
            # reference needs a few frames to settle -- restart the
            # monitor rather than re-triggering selection
            self.monitor.reset()
            drift = False
        self._frames_since_swap += 1
        if drift:
            self._mode = self._MODE_SELECT
            self._buffer = [item]
            return []
        return [self.emission.emit(self.deployed, pixels)]

    def step_batch(self, items: Iterable[object],
                   batch_size: int = 64) -> List[FrameRecord]:
        """Push a window of frames through the batched monitor path.

        Equivalent to calling :meth:`step` once per item, for any
        ``batch_size``: records, detections, invocation counts, fault stats
        and the simulated clock all end up bit-identical, so batched and
        sequential processing (and different chunkings of the same stream,
        e.g. after a checkpoint restore) are interchangeable.

        Monitoring chunks, cooldown frames included, are observed with the
        monitor's batched path in one call and emitted with one batched
        classifier call.  The batching is *optimistic*: the monitor, clock
        and recorder are snapshotted (via
        :class:`~repro.runtime.protocols.Snapshotable`) before each chunk.
        A drift flag at chunk position ``j`` rolls them back and replays
        the prefix: frames ``[0, j)`` are re-observed with one
        ``observe_batch`` (batched observation is bit-identical to
        per-frame observation for any split) and emitted with one
        ``emit_batch``.  Frame ``j`` alone then takes the sequential path,
        where post-drift buffering, cooldown resets and selection run
        exactly as in :meth:`step`, and the rest of the chunk, already
        admitted, is batched again while the kernel keeps monitoring.  A
        one-frame chunk or remainder gains nothing from rollback and takes
        the scalar path without a snapshot, as do frames arriving outside
        monitor mode (buffer filling) and every frame when the monitor
        supports no batched observation.
        """
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive: {batch_size}")
        if not self.started:
            self.start()
        items = list(items)
        if len(items) == 1:
            return self.step(items[0])
        records: List[FrameRecord] = []
        i = 0
        while i < len(items):
            stop = min(i + batch_size, len(items))
            if stop - i == 1 or not self._batchable():
                records.extend(self.step(items[i]))
                i += 1
                continue
            chunk = items[i:stop]
            i = stop
            # a uniformly clean chunk takes one vectorized guard pass in
            # place of len(chunk) scalar admits; its items pass untouched
            pixels = self.admission.admit_batch(chunk)
            if pixels is None:
                entries = [entry for entry in map(self.admission.admit, chunk)
                           if entry is not None]
                if not entries:
                    continue
                chunk = [item for item, _ in entries]
                pixels = np.stack([p for _, p in entries])
            records.extend(self._monitor_admitted(chunk, pixels))
        return records

    def _batchable(self) -> bool:
        """Whether the next frame may take the optimistic batched path."""
        return (self._mode == self._MODE_MONITOR
                and not self.monitor.drift_detected
                and self.monitor.supports_rollback)

    def _monitor_admitted(self, items: List[object],
                          pixels: np.ndarray) -> List[FrameRecord]:
        """Monitor admitted ``items`` (with their stacked ``pixels``) by
        optimistic batches, replaying each drift flag (see
        :meth:`step_batch`)."""
        records: List[FrameRecord] = []
        start, n = 0, pixels.shape[0]
        while start < n:
            if n - start == 1 or not self._batchable():
                records.extend(self._step_admitted(items[start],
                                                   pixels[start]))
                start += 1
                continue
            # optimistic batched observation: snapshot the monitor, clock
            # and recorder so a drift flag inside the block can roll back
            block = pixels[start:]
            monitor_snapshot = self.monitor.snapshot()
            clock_state = self.clock.state_dict()
            obs_state = self.obs.state_dict()
            flags = self.monitor.observe_batch(block)
            if not any(flags):
                self._frames_since_swap += block.shape[0]
                records.extend(self.emission.emit_batch(self.deployed,
                                                        block))
                break
            j = flags.index(True)
            self.monitor.restore(monitor_snapshot)
            self.clock.load_state_dict(clock_state)
            self.obs.load_state_dict(obs_state)
            if j:
                self.monitor.observe_batch(block[:j])
                self._frames_since_swap += j
                records.extend(self.emission.emit_batch(self.deployed,
                                                        block[:j]))
            records.extend(self._step_admitted(items[start + j], block[j]))
            start += j + 1
        return records

    def flush(self) -> List[FrameRecord]:
        """End the stream: resolve any frames still buffered.

        A partial selection window is evaluated as-is; a partial training
        buffer trains on whatever was collected, deterministically falling
        back to the nearest provisioned model when fewer than two frames
        are available (training needs at least two).
        """
        if not self.started:
            self.start()
        if not self._buffer:
            return []
        if self._mode == self._MODE_TRAIN:
            return self._resolve_buffer(novel_hint=True)
        return self._resolve_buffer()

    def result(self) -> PipelineResult:
        """The session's aggregated outcome so far."""
        if not self.started:
            self.start()
        self.admission.faults.breaker_trips = self.admission.breaker.trips
        return PipelineResult(
            records=self.emission.records,
            detections=self.emission.detections,
            invocations=self.emission.invocations,
            simulated_ms=self.clock.elapsed_ms - self._start_ms,
            faults=self.admission.faults,
            telemetry=self.obs.snapshot())

    # ------------------------------------------------------------------
    def process(self, stream: Iterable[object]) -> PipelineResult:
        """Run the full loop over ``stream``; returns aggregated results.

        Equivalent to :meth:`start` + :meth:`step` per item + :meth:`flush`;
        use those directly for push-based (live) processing.
        """
        self.start()
        for item in stream:
            self.step(item)
        self.flush()
        return self.result()

    def process_batched(self, stream: Iterable[object],
                        batch_size: int = 64) -> PipelineResult:
        """Batched counterpart of :meth:`process` (see :meth:`step_batch`);
        produces bit-identical results for any ``batch_size``."""
        self.start()
        self.step_batch(stream, batch_size=batch_size)
        self.flush()
        return self.result()

    # ------------------------------------------------------------------
    # Snapshotable: one mechanism for checkpoints, fleet crash recovery,
    # and any external state capture (no private attribute reaching)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Capture the live session.

        Raises :class:`CheckpointError` when no session is active, or when
        the monitoring stage's monitor is not
        :class:`~repro.runtime.protocols.Snapshotable`.  Buffered items are
        captured as raw pixel arrays (their ground-truth metadata is not
        carried).
        """
        if not self.started:
            raise CheckpointError(
                "no active session to checkpoint; call start() or step() "
                "first")
        state = {
            "deployed": self.deployed.name,
            "mode": self._mode,
            "start_ms": self._start_ms,
            "frames_since_swap": self._frames_since_swap,
            "inspector": self.monitor.state_dict(),
            "clock": self.clock.state_dict(),
            "buffer": (np.stack([pixels_of(item) for item in self._buffer])
                       if self._buffer else None),
        }
        state.update(self.emission.state_dict())
        state.update(self.admission.state_dict())
        selector_rng = getattr(self.adaptation.selector, "_rng", None)
        if isinstance(selector_rng, np.random.Generator):
            state["selector_rng"] = selector_rng.bit_generator.state
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a session captured by :meth:`state_dict` into this
        freshly constructed kernel (same registry, selector, config)."""
        deployed = state["deployed"]
        if deployed not in self.registry:
            raise CheckpointError(
                f"checkpoint deploys {deployed!r} but the registry only has "
                f"{self.registry.names()}; persist mid-session bundles with "
                f"repro.core.selection.persistence before checkpointing")
        self.start()
        # rebuild the monitor against the deployed bundle, then overlay the
        # checkpointed dynamic state (martingale, RNG streams, counters)
        self.deploy(deployed)
        self.monitor.load_state_dict(state["inspector"])
        self.emission.load_state_dict(state)
        self.admission.load_state_dict(state)
        self._mode = str(state["mode"])
        self._frames_since_swap = int(state["frames_since_swap"])
        self.clock.load_state_dict(state["clock"])
        self._start_ms = float(state["start_ms"])
        buffer = state.get("buffer")
        if buffer is not None and len(buffer):
            self._buffer = [np.asarray(frame, dtype=np.float64)
                            for frame in buffer]
        if "selector_rng" in state:
            selector_rng = getattr(self.adaptation.selector, "_rng", None)
            if isinstance(selector_rng, np.random.Generator):
                selector_rng.bit_generator.state = state["selector_rng"]
