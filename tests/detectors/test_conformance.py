"""Every zoo entry passes the full conformance battery -- and the kit
itself actually catches violations (a kit that passes everything
certifies nothing)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.detectors import zoo
from repro.detectors.zoo import DetectorSpec
from repro.errors import ConformanceError
from repro.testing import gaussian_stream, make_registry
from repro.testing.conformance import (
    DETECT_SEED,
    DETECT_SEGMENTS,
    check_protocol,
    check_reset,
    check_seed_determinism,
    check_state_roundtrip,
    run_conformance,
)


@pytest.fixture(scope="module")
def bundle():
    return make_registry().get("low")


@pytest.fixture(scope="module")
def frames():
    return gaussian_stream(DETECT_SEED, list(DETECT_SEGMENTS))


@pytest.mark.parametrize("name", zoo.names())
def test_zoo_entry_passes_conformance(name, bundle):
    """The acceptance bar for registering a detector: protocol, reset,
    determinism, mid-stream state round-trip, three-substrate
    bit-identity, and a non-vacuous detection."""
    run_conformance(zoo.get_spec(name), bundle)


class _BrokenBase:
    """Minimal Snapshotable DriftMonitor; subclasses break one clause."""

    def __init__(self, reference):
        centroid = np.asarray(reference, dtype=np.float64).mean(axis=0)
        self._centroid = centroid
        self._frame_index = 0
        self._drift_frame = None

    @property
    def drift_detected(self):
        return self._drift_frame is not None

    @property
    def drift_frame(self):
        return self._drift_frame

    def _distance(self, frame):
        latent = np.asarray(frame, dtype=np.float64).reshape(-1)
        return float(np.sqrt(((latent - self._centroid) ** 2).sum()))

    def observe(self, frame):
        if self._distance(frame) > 10.0 and self._drift_frame is None:
            self._drift_frame = self._frame_index
        self._frame_index += 1
        return self.drift_detected

    def observe_batch(self, frames):
        return [self.observe(frame) for frame in np.asarray(frames)]

    def reset(self):
        self._drift_frame = None

    def state_dict(self):
        return {"frame_index": self._frame_index,
                "drift_frame": self._drift_frame}

    def load_state_dict(self, state):
        self._frame_index = int(state["frame_index"])
        drift = state["drift_frame"]
        self._drift_frame = None if drift is None else int(drift)


def _spec(name, cls, rollback=True):
    return DetectorSpec(name=name, family="broken", description="broken",
                        factory=lambda bundle: cls(bundle.sigma),
                        rollback=rollback)


class TestKitCatchesViolations:
    def test_wrong_rollback_advertisement_caught(self, bundle):
        # the stub qualifies for rollback (observe_batch + Snapshotable)
        # but the spec claims it does not: the kit must flag the mismatch
        with pytest.raises(ConformanceError, match="rollback"):
            check_protocol(
                _spec("no-batch", _BrokenBase, rollback=False), bundle)

    def test_sticky_reset_caught(self, bundle, frames):
        class StickyReset(_BrokenBase):
            def reset(self):
                pass  # keeps the latched drift: violates re-arming

        with pytest.raises(ConformanceError, match="reset"):
            check_reset(_spec("sticky", StickyReset), bundle, frames)

    def test_hidden_entropy_caught(self, bundle, frames):
        class Entropic(_BrokenBase):
            _counter = 0

            def __init__(self, reference):
                super().__init__(reference)
                # process-global construction counter: every other
                # monitor built from the same bundle is drift-blind
                Entropic._counter += 1
                self._threshold = (10.0 if Entropic._counter % 2
                                   else float("inf"))

            def observe(self, frame):
                if (self._distance(frame) > self._threshold
                        and self._drift_frame is None):
                    self._drift_frame = self._frame_index
                self._frame_index += 1
                return self.drift_detected

        with pytest.raises(ConformanceError, match="determinism"):
            check_seed_determinism(_spec("entropic", Entropic), bundle,
                                   frames)

    def test_hidden_rng_in_escalation_routing_caught(self, bundle, frames):
        """A cascade whose *routing* gambles: the drift flags of two
        same-bundle builds can coincide by luck, but the tier-1 detector
        accumulates state over the escalated subsequence, so the kit's
        final-state comparison catches the hidden entropy."""
        from repro.cascade import CascadeMonitor, EscalationPolicy
        from repro.detectors.tier0 import PixelStatMonitor

        builds = itertools.count()

        class EntropicPolicy(EscalationPolicy):
            def __init__(self, seed):
                super().__init__()
                self._jitter = np.random.default_rng(seed)

            def decide(self, suspicion):
                # escalation consumes a stream the harness never sees
                jitter = float(self._jitter.uniform(-4.0, 4.0))
                return super().decide(suspicion + jitter)

        def factory(b):
            # each build gets its own jitter stream, seeded from a counter
            # so the test is deterministic: OS-seeded streams sometimes
            # escalated the same frames in both builds, whose final states
            # then matched and left nothing to catch
            return CascadeMonitor(PixelStatMonitor(b.sigma),
                                  zoo.build("inspector", b),
                                  policy=EntropicPolicy(next(builds)))

        spec = DetectorSpec(name="rng-cascade", family="broken",
                            description="broken", factory=factory)
        with pytest.raises(ConformanceError, match="determinism"):
            check_seed_determinism(spec, bundle, frames)

    def test_lossy_state_dict_caught(self, bundle, frames):
        class LossyState(_BrokenBase):
            def state_dict(self):
                return {"frame_index": self._frame_index,
                        "drift_frame": None}  # drops the latched drift

        with pytest.raises(ConformanceError, match="state-roundtrip"):
            check_state_roundtrip(_spec("lossy", LossyState), bundle,
                                  frames)

    def test_honest_stub_passes_everything(self, bundle):
        """The broken variants fail for their *specific* clause, not
        because the base stub is malformed."""
        run_conformance(_spec("honest", _BrokenBase), bundle)
