"""ModelRegistry and ModelBundle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift_inspector import (
    DriftInspector,
    DriftInspectorConfig,
    calibrate_reference,
)
from repro.core.nonconformity import KNNDistance
from repro.core.selection.registry import (
    ModelBundle,
    ModelRegistry,
    NovelDistribution,
)
from repro.errors import RegistryError, ReproError


def make_bundle(name="a", n=10, d=3):
    sigma = np.arange(n * d, dtype=float).reshape(n, d)
    return ModelBundle(name=name, sigma=sigma,
                       reference_scores=np.ones(n))


class TestModelBundle:
    def test_valid_bundle(self):
        bundle = make_bundle()
        assert bundle.sigma.shape == (10, 3)

    def test_score_length_mismatch_rejected(self):
        with pytest.raises(RegistryError):
            ModelBundle(name="x", sigma=np.zeros((5, 2)),
                        reference_scores=np.zeros(4))

    def test_one_dimensional_sigma_rejected(self):
        with pytest.raises(RegistryError):
            ModelBundle(name="x", sigma=np.zeros(5),
                        reference_scores=np.zeros(5))

    def test_embed_without_vae_flattens(self):
        bundle = make_bundle()
        frames = np.zeros((4, 2, 3))
        assert bundle.embed(frames).shape == (4, 6)

    def test_embed_prefers_sample_embed(self):
        class Embedder:
            def sample_embed(self, frames):
                return np.full((np.asarray(frames).shape[0], 2), 7.0)

            def embed(self, frames):
                raise AssertionError("should not be called")

        bundle = make_bundle()
        bundle.vae = Embedder()
        out = bundle.embed(np.zeros((3, 5)))
        assert (out == 7.0).all()


class TestCalibration:
    def test_computed_once_per_k_and_read_only(self):
        bundle = make_bundle(n=20)
        bag, scores = bundle.calibration(5)
        again = bundle.calibration(5)
        assert again[0] is bag and again[1] is scores
        fresh_bag, fresh_scores = calibrate_reference(bundle.sigma,
                                                      KNNDistance(5))
        assert np.array_equal(bag, fresh_bag)
        assert np.array_equal(scores, fresh_scores)
        assert not bag.flags.writeable and not scores.flags.writeable
        assert bundle.calibration(3)[1] is not scores

    def test_reassigned_sigma_recalibrates(self):
        bundle = make_bundle(n=20)
        bag, _ = bundle.calibration(5)
        bundle.sigma = bundle.sigma * 2.0
        assert np.array_equal(bundle.calibration(5)[0], bundle.sigma[:10])
        assert not np.array_equal(bundle.calibration(5)[0], bag)

    @pytest.mark.parametrize("inductive_split", [True, False])
    def test_shared_calibration_observes_like_a_fresh_one(self,
                                                          inductive_split):
        rng = np.random.default_rng(4)
        bundle = ModelBundle(name="g", sigma=rng.normal(size=(40, 3)),
                             reference_scores=np.ones(40))
        frames = np.concatenate([rng.normal(size=(30, 3)),
                                 rng.normal(3.0, 1.0, size=(30, 3))])
        config = DriftInspectorConfig(seed=3, inductive_split=inductive_split)
        fresh = DriftInspector(bundle.sigma, config=config)
        shared = DriftInspector(
            bundle.sigma, config=config,
            calibration=bundle.calibration(config.k, inductive_split))
        assert shared.observe_batch(frames) == fresh.observe_batch(frames)


class TestModelRegistry:
    def test_add_get_roundtrip(self):
        registry = ModelRegistry()
        bundle = make_bundle("day")
        registry.add(bundle)
        assert registry.get("day") is bundle
        assert "day" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = ModelRegistry([make_bundle("day")])
        with pytest.raises(RegistryError):
            registry.add(make_bundle("day"))

    def test_replace_overwrites(self):
        registry = ModelRegistry([make_bundle("day")])
        replacement = make_bundle("day", n=20)
        registry.replace(replacement)
        assert registry.get("day") is replacement

    def test_unknown_lookup_raises_with_known_names(self):
        registry = ModelRegistry([make_bundle("day")])
        with pytest.raises(RegistryError, match="day"):
            registry.get("night")

    def test_remove(self):
        registry = ModelRegistry([make_bundle("day")])
        registry.remove("day")
        assert len(registry) == 0
        with pytest.raises(RegistryError):
            registry.remove("day")

    def test_iteration_preserves_insertion_order(self):
        registry = ModelRegistry([make_bundle("b"), make_bundle("a")])
        assert [b.name for b in registry] == ["b", "a"]
        assert registry.names() == ["b", "a"]


class TestNovelDistribution:
    def test_is_control_flow_not_repro_error(self):
        exc = NovelDistribution()
        assert not isinstance(exc, ReproError)

    def test_carries_diagnostics(self):
        exc = NovelDistribution("nope", diagnostics={"brier": 0.5})
        assert exc.diagnostics["brier"] == 0.5
