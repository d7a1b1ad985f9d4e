"""Batched processing on the pixel path: a real VAE and classifier.

``process_batched`` embeds each monitoring chunk in one VAE call,
replays a drift flag at chunk position ``j`` by re-observing frames
``[0, j)`` in one call, and batches cooldown frames like any others.  All
of that must reproduce sequential ``process`` bit for bit, which holds
only because :mod:`repro.nn` inference is batch-invariant.  The stream
drifts in the middle of a chunk, and after the swap it drifts back
inside the cooldown, so the cooldown reset runs on the batched path too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift_inspector import DriftInspectorConfig
from repro.core.nonconformity import KNNDistance
from repro.core.pipeline import DriftAwareAnalytics, PipelineConfig
from repro.core.selection.msbi import MSBI, MSBIConfig
from repro.core.selection.registry import ModelBundle, ModelRegistry
from repro.detectors.classifier_filters import CountClassifier
from repro.nn.classifier import ClassifierConfig
from repro.nn.vae import VAE, VAEConfig
from repro.runtime.monitoring import MonitorStage
from repro.testing import result_sig

SHAPE = (1, 8, 8)

#: Frame index of the first drift flag: inside a chunk at every tested
#: batch size above 1.
FIRST_FLAG = 73


def render(rng, level: float, n: int) -> np.ndarray:
    return np.clip(rng.uniform(0.0, 0.2, size=(n,) + SHAPE) + level,
                   0.0, 1.0)


def bundle(name: str, level: float, seed: int) -> ModelBundle:
    rng = np.random.default_rng(seed)
    frames = render(rng, level, 100)
    vae = VAE(VAEConfig(input_shape=SHAPE, latent_dim=3, hidden=16,
                        epochs=2, z_clip=50.0, seed=seed))
    vae.fit(frames)
    sigma = vae.sample_latents(300, seed=seed)
    model = CountClassifier(ClassifierConfig(
        input_shape=SHAPE, num_classes=3, hidden=8, epochs=1, seed=seed))
    model.fit(frames, rng.integers(0, 3, size=100))
    return ModelBundle(name=name, sigma=sigma,
                       reference_scores=KNNDistance(5).reference_scores(
                           sigma),
                       vae=vae, model=model)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry([bundle("dark", 0.1, 1), bundle("bright", 0.7, 2)])


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(9)
    # dark -> bright (a drift in mid-chunk) -> dark again before the
    # cooldown after the swap to bright has run out
    return np.concatenate([render(rng, 0.1, 71), render(rng, 0.7, 24),
                           render(rng, 0.1, 80)])


@pytest.fixture
def resets(monkeypatch):
    """Counts cooldown resets: the kernel resets its monitor only there."""
    calls = []
    reset = MonitorStage.reset

    def counting(self):
        calls.append(self)
        reset(self)

    monkeypatch.setattr(MonitorStage, "reset", counting)
    return calls


def pipeline(registry) -> DriftAwareAnalytics:
    return DriftAwareAnalytics(
        registry, "dark", MSBI(registry, MSBIConfig(window_size=8, seed=0)),
        config=PipelineConfig(selection_window=8,
                              drift_inspector=DriftInspectorConfig(seed=0)))


@pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
def test_process_batched_matches_process_on_pixels(registry, stream,
                                                   resets, batch_size):
    sequential = pipeline(registry).process(stream)
    sequential_resets = len(resets)
    del resets[:]
    batched = pipeline(registry).process_batched(stream,
                                                 batch_size=batch_size)
    assert result_sig(batched) == result_sig(sequential)
    assert len(resets) == sequential_resets > 0
    assert [(d.frame_index, d.previous_model, d.selected_model)
            for d in sequential.detections] == [
        (FIRST_FLAG, "dark", "bright"), (106, "bright", "dark")]
    assert batch_size == 1 or FIRST_FLAG % batch_size, \
        "the first flag must land inside a chunk"
