"""The detector conformance kit: what every zoo entry must survive.

A drift detector that backs the runtime kernel's monitoring stage has to
honour several contracts at once: the structural
:class:`~repro.runtime.protocols.DriftMonitor` protocol, ``reset()``
re-arming, deterministic construction, a ``state_dict`` round-trip that
is an exact no-op mid-stream, and -- the strongest -- bit-identical
pipeline results across the execution substrates: sequential
``process``, chunked ``process_batched``, an unconstrained serve run
through the real scheduler, and a forked fleet run over the
shared-memory frame transport.  Each ``check_*`` function pins one of
those contracts for a single :class:`~repro.detectors.zoo.DetectorSpec`;
:func:`run_conformance` runs the whole battery.

Failures raise :class:`~repro.errors.ConformanceError` (an
``AssertionError`` subclass, so pytest renders it natively) with a
message naming the detector and the violated clause.  Third-party
detectors get certified the same way the built-ins are tested::

    from repro.detectors.zoo import DetectorSpec
    from repro.testing.conformance import run_conformance

    run_conformance(DetectorSpec(name="mine", family="custom",
                                 description="...", factory=build_mine))

This module lives outside ``repro/testing/__init__`` on purpose: the
three-substrate check imports :mod:`repro.serve`, and keeping that
import out of the package root keeps plain fixture consumers (the
benchmarks, :mod:`repro.detectors.bench`) upstream of the serving layer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConformanceError
from repro.parallel import FleetExecutor, FleetTask, stream_seed
from repro.runtime import MonitorStage, DriftMonitor, Snapshotable
from repro.serve import (
    DriftServer,
    SchedulerConfig,
    ServeConfig,
    SessionConfig,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.testing import gaussian_stream, make_pipeline, make_registry, \
    result_sig

#: The certification stream: long enough for every built-in detector --
#: including the slow starters (ODIN's temporary cluster, EDDM's error
#: gap baseline) -- to catch the shift within the post-onset window.
DETECT_SEGMENTS: Tuple[Tuple[float, int], ...] = ((0.0, 120), (6.0, 120))
DETECT_ONSET = 120
DETECT_SEED = 0

#: Mid-stream snapshot points for the round-trip check: one before the
#: drift onset (latent state only) and one after it (latched
#: ``drift_frame`` plus post-swap statistics must survive the trip).
ROUNDTRIP_SPLITS: Tuple[int, ...] = (60, 150)

_BATCH_SIZES: Tuple[int, ...] = (3, 16)


def _state_equal(left: object, right: object) -> bool:
    """Exact structural equality, treating numpy arrays bit-for-bit."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left_arr, right_arr = np.asarray(left), np.asarray(right)
        return (left_arr.shape == right_arr.shape
                and left_arr.dtype == right_arr.dtype
                and bool(np.array_equal(left_arr, right_arr)))
    if isinstance(left, dict) and isinstance(right, dict):
        return (left.keys() == right.keys()
                and all(_state_equal(left[k], right[k]) for k in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (len(left) == len(right)
                and all(_state_equal(a, b) for a, b in zip(left, right)))
    if type(left) is not type(right):
        return False
    return left == right


def _flags(monitor, frames) -> list:
    """Normalised per-frame drift verdicts (``drift_of`` handles both
    bool-returning and decision-returning monitors)."""
    return [bool(MonitorStage.drift_of(monitor.observe(frame)))
            for frame in frames]


def _fail(spec, clause: str, detail: str) -> None:
    raise ConformanceError(
        f"detector {spec.name!r} fails conformance [{clause}]: {detail}")


def serve_unconstrained(frames, seed: int, batch_size: int, factory):
    """Serve ``frames`` on one stream that can never shed or miss a
    deadline, returning the stream's PipelineResult.  This is the serve
    substrate of the bit-identity check (and of the kernel-equivalence
    tests, which import it from here)."""
    session = StreamSession(
        "cam", make_pipeline(seed=seed, monitor_factory=factory),
        SessionConfig(queue_capacity=1 << 20, deadline_ms=1e12))
    arrivals = generate_arrivals(
        frames, WorkloadConfig(rate_fps=capacity_fps()), stream_id="cam",
        deadline_ms=1e12, seed=seed + 1)
    server = DriftServer([session], ServeConfig(
        scheduler=SchedulerConfig(batch_size=batch_size)))
    return server.run(arrivals).pipeline_results["cam"]


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
def check_protocol(spec, bundle) -> None:
    """The built monitor satisfies DriftMonitor + Snapshotable, and its
    rollback qualification matches what the spec advertises."""
    monitor = spec.build(bundle)
    if not isinstance(monitor, DriftMonitor):
        _fail(spec, "protocol", "monitor does not satisfy DriftMonitor")
    if not isinstance(monitor, Snapshotable):
        _fail(spec, "protocol",
              "monitor is not Snapshotable; checkpoint/restore and the "
              "optimistic batched path both need state_dict()")
    supports = MonitorStage(monitor).supports_rollback
    if supports != spec.rollback:
        _fail(spec, "protocol",
              f"spec advertises rollback={spec.rollback} but the kernel "
              f"sees supports_rollback={supports} (observe_batch "
              f"{'present' if hasattr(monitor, 'observe_batch') else 'absent'})")


def check_reset(spec, bundle, frames=None) -> None:
    """``reset()`` clears the latched drift verdict and re-arms."""
    frames = frames if frames is not None else gaussian_stream(
        DETECT_SEED, list(DETECT_SEGMENTS))
    monitor = spec.build(bundle)
    for frame in frames:
        monitor.observe(frame)
        if monitor.drift_detected:
            break
    if not monitor.drift_detected:
        _fail(spec, "reset",
              f"monitor never latched drift on the certification stream "
              f"({len(frames)} frames, onset {DETECT_ONSET}); cannot "
              f"exercise reset()")
    monitor.reset()
    if monitor.drift_detected:
        _fail(spec, "reset", "drift_detected still True after reset()")
    if monitor.drift_frame is not None:
        _fail(spec, "reset",
              f"drift_frame still {monitor.drift_frame!r} after reset()")


def check_seed_determinism(spec, bundle, frames=None) -> None:
    """Two monitors built from the same bundle produce identical
    decision sequences -- and end in bit-identical state -- on the same
    stream (no hidden entropy).

    The final ``state_dict`` comparison is the sharp edge: a composite
    monitor whose *internal routing* consumes hidden RNG (e.g. a cascade
    escalating at random) can emit coincidentally equal drift flags while
    its inner detectors saw different frame subsequences; their
    accumulated state (a martingale, a window buffer) depends on exactly
    which frames were observed, so it diverges whenever the two builds
    routed different frames.  Two draws of hidden entropy can still route
    the same frames and end in the same state, so the check catches such
    a monitor with high probability, not with certainty.
    """
    frames = frames if frames is not None else gaussian_stream(
        DETECT_SEED, list(DETECT_SEGMENTS))
    first, second = spec.build(bundle), spec.build(bundle)
    if _flags(first, frames) != _flags(second, frames):
        _fail(spec, "determinism",
              "two monitors from the same bundle diverged on the same "
              "stream")
    if first.drift_frame != second.drift_frame:
        _fail(spec, "determinism",
              f"drift_frame diverged: {first.drift_frame} vs "
              f"{second.drift_frame}")
    if isinstance(first, Snapshotable) and isinstance(second, Snapshotable):
        if not _state_equal(first.state_dict(), second.state_dict()):
            _fail(spec, "determinism",
                  "two monitors from the same bundle agree on every drift "
                  "flag but end in different state: something inside "
                  "consumes hidden entropy")


def check_state_roundtrip(spec, bundle, frames=None,
                          splits: Sequence[int] = ROUNDTRIP_SPLITS) -> None:
    """``load_state_dict(state_dict())`` is an exact no-op mid-stream.

    At each split point the monitor is snapshotted into a freshly built
    twin; the snapshot must reproduce bit-identically
    (``state_dict()`` round-trips) and both monitors must agree on every
    subsequent frame.
    """
    frames = frames if frames is not None else gaussian_stream(
        DETECT_SEED, list(DETECT_SEGMENTS))
    for split in splits:
        original = spec.build(bundle)
        for frame in frames[:split]:
            original.observe(frame)
        state = original.state_dict()
        restored = spec.build(bundle)
        restored.load_state_dict(state)
        if not _state_equal(restored.state_dict(), state):
            _fail(spec, "state-roundtrip",
                  f"state_dict() after load_state_dict() is not "
                  f"bit-identical at split {split}")
        if _flags(original, frames[split:]) != _flags(restored,
                                                      frames[split:]):
            _fail(spec, "state-roundtrip",
                  f"restored monitor diverged from the original after "
                  f"split {split}")
        if original.drift_frame != restored.drift_frame:
            _fail(spec, "state-roundtrip",
                  f"drift_frame diverged after split {split}: "
                  f"{original.drift_frame} vs {restored.drift_frame}")


def check_three_substrates(spec, frames=None, seed: int = DETECT_SEED,
                           batch_sizes: Sequence[int] = _BATCH_SIZES) -> None:
    """Sequential, batched (several chunkings) and served runs emit
    bit-identical PipelineResults with this detector on the monitoring
    stage."""
    frames = frames if frames is not None else gaussian_stream(
        seed, list(DETECT_SEGMENTS))
    signature = result_sig(make_pipeline(
        seed=seed, monitor_factory=spec.factory).process(frames))
    for batch_size in batch_sizes:
        batched = make_pipeline(
            seed=seed, monitor_factory=spec.factory).process_batched(
                frames, batch_size=batch_size)
        if result_sig(batched) != signature:
            _fail(spec, "three-substrates",
                  f"process_batched(batch_size={batch_size}) diverged "
                  f"from sequential process")
    served = serve_unconstrained(frames, seed, _BATCH_SIZES[-1],
                                 spec.factory)
    if result_sig(served) != signature:
        _fail(spec, "three-substrates",
              "unconstrained serve run diverged from sequential process")


def check_fleet(spec, frames=None, seed: int = DETECT_SEED) -> None:
    """A forked fleet run (two workers, shared-memory frame transport,
    batched kernel inside each worker) is bit-identical to sequential
    ``process`` with the same derived per-stream seeds.  This is the
    fourth substrate: it proves the detector's state survives being
    driven from zero-copy shared-memory frame views in a subprocess."""
    frames = frames if frames is not None else gaussian_stream(
        seed, list(DETECT_SEGMENTS))
    tasks = [FleetTask(stream_id="cam-a", frames=frames),
             FleetTask(stream_id="cam-b", frames=frames[::-1])]

    def factory(task, task_seed):
        return make_pipeline(seed=task_seed, monitor_factory=spec.factory)

    expected = [
        result_sig(make_pipeline(
            seed=stream_seed(seed, task.stream_id),
            monitor_factory=spec.factory).process(task.frames))
        for task in tasks]
    executor = FleetExecutor(factory, workers=2, base_seed=seed,
                             batch_size=_BATCH_SIZES[-1], transport="shm")
    got = [result_sig(entry.result) for entry in executor.run(tasks)]
    if got != expected:
        diverged = [task.stream_id for task, want, have
                    in zip(tasks, expected, got) if want != have]
        _fail(spec, "fleet",
              f"forked fleet run over the shm transport diverged from "
              f"sequential process on stream(s) {diverged}")


def check_detects(spec, frames=None, onset: Optional[int] = None,
                  seed: int = DETECT_SEED) -> None:
    """The certification is not vacuous: through the full pipeline the
    detector catches the reference -> shifted transition at or after the
    onset and drives a model swap."""
    frames = frames if frames is not None else gaussian_stream(
        seed, list(DETECT_SEGMENTS))
    onset = DETECT_ONSET if onset is None else onset
    result = make_pipeline(
        seed=seed, monitor_factory=spec.factory).process(frames)
    if not result.detections:
        _fail(spec, "detects", "no detections on the certification stream")
    first = result.detections[0].frame_index
    if first < onset:
        _fail(spec, "detects",
              f"first detection at frame {first} precedes the onset "
              f"({onset}): false alarm on the reference segment")
    if result.records[-1].model != "high":
        _fail(spec, "detects",
              f"pipeline never swapped to the post-drift model "
              f"(final model {result.records[-1].model!r})")


def run_conformance(spec, bundle=None) -> None:
    """Run the full battery for one spec; raises
    :class:`ConformanceError` on the first violated clause."""
    bundle = bundle if bundle is not None else make_registry().get("low")
    frames = gaussian_stream(DETECT_SEED, list(DETECT_SEGMENTS))
    check_protocol(spec, bundle)
    check_reset(spec, bundle, frames)
    check_seed_determinism(spec, bundle, frames)
    check_state_roundtrip(spec, bundle, frames)
    check_three_substrates(spec, frames)
    check_fleet(spec, frames)
    check_detects(spec, frames)
