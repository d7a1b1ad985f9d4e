"""The cascade on raw pixels: tier 0 screens rendered ``(H, W)`` frames.

The zoo builds the ``pixelstat`` / ``cascade-di`` screen from a bundle's
retained ``training_frames`` when it has them, so on a pixel registry
tier 0 compares frames with frames while tier 1 embeds them through the
bundle's VAE.  Feature bundles (no training frames) keep screening
against ``sigma``.  Batched processing must reproduce sequential
processing bit for bit at every chunk size, and the drift must be
caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift_inspector import DriftInspectorConfig
from repro.core.nonconformity import KNNDistance
from repro.core.pipeline import DriftAwareAnalytics, PipelineConfig
from repro.core.selection.msbi import MSBI, MSBIConfig
from repro.core.selection.registry import ModelBundle, ModelRegistry
from repro.detectors import zoo
from repro.detectors.classifier_filters import CountClassifier
from repro.nn.classifier import ClassifierConfig
from repro.nn.vae import VAE, VAEConfig
from repro.testing import make_registry, result_sig

SHAPE = (8, 8)

#: First frame of the bright segment.
ONSET = 90


def render(rng, level: float, n: int) -> np.ndarray:
    return np.clip(rng.uniform(0.0, 0.2, size=(n,) + SHAPE) + level,
                   0.0, 1.0)


def bundle(name: str, level: float, seed: int) -> ModelBundle:
    rng = np.random.default_rng(seed)
    frames = render(rng, level, 100)
    vae = VAE(VAEConfig(input_shape=(1,) + SHAPE, latent_dim=3, hidden=16,
                        epochs=2, z_clip=50.0, seed=seed))
    vae.fit(frames)
    sigma = vae.sample_latents(300, seed=seed)
    model = CountClassifier(ClassifierConfig(
        input_shape=(1,) + SHAPE, num_classes=3, hidden=8, epochs=1,
        seed=seed))
    model.fit(frames, rng.integers(0, 3, size=100))
    return ModelBundle(name=name, sigma=sigma,
                       reference_scores=KNNDistance(5).reference_scores(
                           sigma),
                       vae=vae, model=model, training_frames=frames)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry([bundle("dark", 0.1, 1), bundle("bright", 0.7, 2)])


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(9)
    return np.concatenate([render(rng, 0.1, ONSET), render(rng, 0.7, 110)])


def pipeline(registry) -> DriftAwareAnalytics:
    return DriftAwareAnalytics(
        registry, "dark", MSBI(registry, MSBIConfig(window_size=8, seed=0)),
        config=PipelineConfig(selection_window=8,
                              drift_inspector=DriftInspectorConfig(seed=0)),
        monitor_factory=zoo.factory("cascade-di"))


def test_screen_reference_follows_the_bundle(registry):
    """Pixel bundles are screened against their training frames, feature
    bundles against ``sigma``."""
    pixel = registry.get("dark")
    cascade = zoo.build("cascade-di", pixel)
    assert cascade.tier0.reference_frame.shape == SHAPE
    assert np.array_equal(cascade.tier0.reference_frame,
                          pixel.training_frames.mean(axis=0))
    features = make_registry().get("low")
    assert zoo.build("pixelstat", features).reference_frame.shape == \
        features.sigma.shape[1:]


@pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
def test_process_batched_matches_process_on_pixels(registry, stream,
                                                   batch_size):
    sequential = pipeline(registry).process(stream)
    batched = pipeline(registry).process_batched(stream,
                                                 batch_size=batch_size)
    assert result_sig(batched) == result_sig(sequential)
    [detection] = sequential.detections
    assert (detection.previous_model, detection.selected_model) == \
        ("dark", "bright")
    assert ONSET <= detection.frame_index < ONSET + 16
