"""VAE: training, embeddings, Sigma_T sampling, augmentations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.nn.vae import VAE, VAEConfig, _block_mean4


def small_config(**kwargs):
    defaults = dict(input_shape=(1, 8, 8), latent_dim=3,
                    architecture="dense", hidden=32, epochs=3,
                    batch_size=8, seed=0)
    defaults.update(kwargs)
    return VAEConfig(**defaults)


@pytest.fixture
def frames(rng):
    """Structured frames: a bright band whose position varies."""
    n = 80
    frames = np.zeros((n, 8, 8))
    rows = rng.integers(1, 7, size=n)
    for i, row in enumerate(rows):
        frames[i, row, :] = 0.9
        frames[i] += rng.uniform(0, 0.05, size=(8, 8))
    return np.clip(frames, 0, 1)


class TestTraining:
    def test_fit_reduces_reconstruction_loss(self, frames):
        vae = VAE(small_config(epochs=8))
        history = vae.fit(frames)
        assert history.reconstruction[-1] < history.reconstruction[0]
        assert vae.is_fitted

    def test_history_lengths_match_epochs(self, frames):
        vae = VAE(small_config(epochs=4))
        history = vae.fit(frames)
        assert len(history.total) == 4
        assert len(history.kl) == 4

    def test_fit_on_empty_rejected(self):
        vae = VAE(small_config())
        with pytest.raises(ConfigurationError):
            vae.fit(np.empty((0, 64)))


class TestEmbedding:
    def test_embed_shape(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        assert vae.embed(frames[:5]).shape == (5, 3)

    def test_sample_embed_adds_augmented_dims(self, frames):
        config = small_config(augment_recon=True, augment_profile=True,
                              profile_bins=4)
        vae = VAE(config)
        vae.fit(frames)
        out = vae.sample_embed(frames[:5])
        # latent 3 + recon 1 + profile 2*4
        assert out.shape == (5, 3 + 1 + 8)

    def test_sample_embed_without_augmentations(self, frames):
        vae = VAE(small_config(augment_recon=False, augment_profile=False))
        vae.fit(frames)
        assert vae.sample_embed(frames[:5]).shape == (5, 3)

    def test_sample_embed_is_stochastic(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        a = vae.sample_embed(frames[:3])
        b = vae.sample_embed(frames[:3])
        assert not np.allclose(a[:, :3], b[:, :3])

    def test_augmented_embed_is_deterministic(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        a = vae.augmented_embed(frames[:3])
        b = vae.augmented_embed(frames[:3])
        np.testing.assert_allclose(a, b)
        assert a.shape == vae.sample_embed(frames[:3]).shape

    def test_accepts_flat_and_image_layouts(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        flat = frames[:4].reshape(4, -1)
        assert vae.embed(flat).shape == (4, 3)

    def test_wrong_dim_rejected(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        with pytest.raises(DimensionMismatchError):
            vae.embed(np.zeros((2, 100)))


class TestSigmaSampling:
    def test_matches_sample_embed_dimensionality(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        sigma = vae.sample_latents(50, seed=1)
        assert sigma.shape[1] == vae.sample_embed(frames[:1]).shape[1]

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            VAE(small_config()).sample_latents(10)

    def test_seeded_sampling_reproducible(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        np.testing.assert_allclose(vae.sample_latents(20, seed=5),
                                   vae.sample_latents(20, seed=5))

    def test_null_pvalues_calibrated_via_inductive_split(self, frames, rng):
        """Sigma_T + sample_embed + the inductive split yield roughly
        uniform p-values for fresh frames from the same distribution --
        the property the whole drift pipeline rests on."""
        from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig

        vae = VAE(small_config(epochs=6))
        vae.fit(frames)
        sigma = vae.sample_latents(60, seed=2)
        inspector = DriftInspector(sigma, DriftInspectorConfig(seed=3),
                                   embedder=vae)
        # fresh frames from the same generator
        fresh = np.zeros((150, 8, 8))
        rows = rng.integers(1, 7, size=150)
        for i, row in enumerate(rows):
            fresh[i, row, :] = 0.9
            fresh[i] += rng.uniform(0, 0.05, size=(8, 8))
        pvals = [inspector.observe(f).p_value for f in np.clip(fresh, 0, 1)]
        assert 0.25 < float(np.mean(pvals)) < 0.75

    def test_oversampling_splits_disjoint_halves(self, frames):
        """When more samples than calibration frames are requested, the
        two halves of Sigma_T must come from disjoint frame subsets (no
        recon/profile twins across the halves)."""
        vae = VAE(small_config(calibration_fraction=0.3))
        vae.fit(frames)
        n_cal = vae.calibration_size
        sigma = vae.sample_latents(4 * n_cal, seed=7)
        half = sigma.shape[0] // 2
        # the recon coordinate (index latent_dim) identifies the source frame
        recon_a = set(np.round(sigma[:half, 3], 12))
        recon_b = set(np.round(sigma[half:, 3], 12))
        assert not recon_a & recon_b

    def test_invalid_sample_size_rejected(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        with pytest.raises(ConfigurationError):
            vae.sample_latents(0)


class TestGenerativeDirection:
    def test_decode_shape_and_range(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        out = vae.decode(np.zeros((2, 3)))
        assert out.shape == (2, 64)
        assert (out >= 0).all() and (out <= 1).all()

    def test_reconstruct_shape(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        assert vae.reconstruct(frames[:3]).shape == (3, 64)

    def test_decode_wrong_latent_dim_rejected(self, frames):
        vae = VAE(small_config())
        vae.fit(frames)
        with pytest.raises(DimensionMismatchError):
            vae.decode(np.zeros((1, 7)))


class TestConvArchitecture:
    def test_conv_vae_trains_and_embeds(self, rng):
        frames = rng.uniform(size=(24, 16, 16))
        config = VAEConfig(input_shape=(1, 16, 16), latent_dim=4,
                           architecture="conv", conv_channels=(4, 6, 8),
                           epochs=1, batch_size=8, seed=0)
        vae = VAE(config)
        vae.fit(frames)
        assert vae.embed(frames[:2]).shape == (2, 4)
        sigma = vae.sample_latents(10, seed=0)
        assert sigma.shape[0] == 10

    def test_conv_requires_divisible_dims(self):
        with pytest.raises(ConfigurationError):
            VAEConfig(input_shape=(1, 12, 12), architecture="conv")


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"latent_dim": 0}, {"architecture": "rnn"}, {"epochs": 0},
        {"kl_weight": -1.0}, {"calibration_fraction": 1.0},
        {"calibration_fraction": -0.1},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            small_config(**kwargs)


#: Pixels at the extremes the reductions must carry through unchanged.
_pixels = st.one_of(
    st.sampled_from([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]),
    st.floats(0.0, 1.0))


@st.composite
def _stacks(draw, channels):
    """``(N, C, 8, 8)`` frame stacks: mixed pixels or constant frames."""
    shape = (draw(st.integers(1, 3)), channels, 8, 8)
    if draw(st.booleans()):
        return np.full(shape, draw(_pixels))
    return draw(arrays(np.float64, shape, elements=_pixels))


def _same_bits(got, expected):
    """Equal bytes wherever the reference is a number, NaN wherever it is
    NaN: which NaN payload survives depends on the order the hardware
    meets two NaNs, which numpy's compiled loops do not pin."""
    got, expected = np.asarray(got), np.asarray(expected)
    nan = np.isnan(expected)
    assert got.shape == expected.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _reference_profiles(vae, x):
    """The ``np.mean`` expression :meth:`VAE._profiles` replaced."""
    c, h, w = vae.config.input_shape
    bins = vae.config.profile_bins
    imgs = x.reshape(x.shape[0], c, h, w).mean(axis=1)
    rows, cols = imgs.mean(axis=2), imgs.mean(axis=1)
    return np.hstack([
        rows.reshape(rows.shape[0], bins, h // bins).mean(axis=2),
        cols.reshape(cols.shape[0], bins, w // bins).mean(axis=2)])


def _reference_recon_error(vae, x, mean):
    """The ``np.mean`` expression :meth:`VAE._recon_error` replaced."""
    c, h, w = vae.config.input_shape
    shape = (x.shape[0], c, h // 4, 4, w // 4, 4)
    r = vae.decode(mean).reshape(shape).mean(axis=(3, 5))
    f = x.reshape(shape).mean(axis=(3, 5))
    return ((r - f) ** 2).mean(axis=(1, 2, 3))


class TestOneFrameReductions:
    """The one-frame embedding's reductions run as ``np.add.reduce`` and
    ordered adds in place of ``np.mean``; each keeps the bits of the
    expression it replaced.  Adding the 4x4 block's row sums in another
    order, or dropping the channel mean of a multi-channel frame, fails
    these."""

    @given(x=_stacks(1))
    @settings(max_examples=150, deadline=None)
    def test_block_mean_matches_mean(self, x):
        blocks = x.reshape(x.shape[0], 1, 2, 4, 2, 4)
        with np.errstate(invalid="ignore", over="ignore"):
            _same_bits(_block_mean4(blocks), blocks.mean(axis=(3, 5)))

    @pytest.mark.parametrize("channels", [1, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_profiles_and_recon_error_match_mean(self, channels, data):
        vae = VAE(small_config(input_shape=(channels, 8, 8)))
        x = data.draw(_stacks(channels))
        with np.errstate(invalid="ignore", over="ignore"):
            mean, _ = vae.encode(x)
            _same_bits(vae._profiles(x), _reference_profiles(vae, x))
            _same_bits(vae._recon_error(x, mean),
                       _reference_recon_error(vae, x, mean))
