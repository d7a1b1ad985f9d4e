"""Inference is batch-invariant: any split of a frame stack gives the
same bits.

The runtime kernel embeds a whole monitoring chunk in one VAE call, and on
a drift flag re-observes the chunk's clean prefix in one call.  Both are
bit-identical to the sequential per-frame path only if every network's
inference output for a frame does not depend on which other frames share
its batch.  These properties state that for the models on the pixel path:
a dense and a conv :class:`VAE` (``sample_embed`` with one shared rng,
``augmented_embed``) and an MLP :class:`CountClassifier`
(``predict_proba``).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.classifier_filters import CountClassifier
from repro.nn.classifier import ClassifierConfig
from repro.nn.layers import Dense
from repro.nn.vae import VAE, VAEConfig

#: Frames per stack; splits partition it into consecutive pieces.
FRAMES = 20

#: Piece sizes, cycled over the stack until it is covered.
splits = st.lists(st.integers(1, FRAMES), min_size=1, max_size=6)


def pieces(frames: np.ndarray, sizes):
    start = 0
    for size in itertools.cycle(sizes):
        if start >= len(frames):
            return
        yield frames[start:start + size]
        start += size


def _frames(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0,
                                               size=(FRAMES,) + shape)


@pytest.fixture(scope="module")
def vaes():
    rng = np.random.default_rng(3)
    dense = VAE(VAEConfig(input_shape=(1, 16, 16), latent_dim=4,
                          architecture="dense", hidden=32, epochs=1,
                          seed=1))
    dense.fit(rng.uniform(0.0, 1.0, size=(40, 1, 16, 16)))
    conv = VAE(VAEConfig(input_shape=(1, 32, 32), latent_dim=4,
                         architecture="conv", epochs=1, seed=2))
    conv.fit(rng.uniform(0.0, 1.0, size=(24, 1, 32, 32)))
    return {"dense": dense, "conv": conv}


@pytest.fixture(scope="module")
def classifier():
    rng = np.random.default_rng(4)
    model = CountClassifier(ClassifierConfig(
        input_shape=(1, 16, 16), num_classes=4, architecture="mlp",
        hidden=32, epochs=1, seed=5))
    model.fit(rng.uniform(0.0, 1.0, size=(40, 1, 16, 16)),
              rng.integers(0, 4, size=40))
    return model


@pytest.mark.parametrize("kind", ["dense", "conv"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=splits)
def test_vae_embeddings_are_split_invariant(vaes, kind, seed, sizes):
    vae = vaes[kind]
    frames = _frames(seed, vae.config.input_shape)
    per_frame_rng = np.random.default_rng(seed)
    per_frame = np.vstack([vae.sample_embed(frames[i:i + 1],
                                            rng=per_frame_rng)
                           for i in range(FRAMES)])
    split_rng = np.random.default_rng(seed)
    split = np.vstack([vae.sample_embed(piece, rng=split_rng)
                       for piece in pieces(frames, sizes)])
    assert np.array_equal(split, per_frame)
    assert np.array_equal(
        np.vstack([vae.augmented_embed(piece)
                   for piece in pieces(frames, sizes)]),
        np.vstack([vae.augmented_embed(frames[i:i + 1])
                   for i in range(FRAMES)]))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=splits)
def test_classifier_probabilities_are_split_invariant(classifier, seed,
                                                      sizes):
    frames = _frames(seed, (1, 16, 16))
    per_frame = np.vstack([classifier.predict_proba(frames[i:i + 1])
                           for i in range(FRAMES)])
    split = np.vstack([classifier.predict_proba(piece)
                       for piece in pieces(frames, sizes)])
    assert np.array_equal(split, per_frame)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fan_in=st.integers(1, 300),
       fan_out=st.integers(1, 300))
def test_dense_inference_of_one_frame_is_the_plain_matmul(seed, fan_in,
                                                           fan_out):
    """The batch-invariant kernel keeps the one-frame bits, so a frame
    embeds exactly as it did before inference became batch-invariant;
    each row of a batch matches it too."""
    layer = Dense(fan_in, fan_out, seed=seed)
    layer.b[...] = np.random.default_rng(seed).normal(size=fan_out)
    x = np.random.default_rng(seed + 1).normal(size=(5, fan_in))
    batch = layer.forward(x, training=False)
    for i in range(5):
        row = x[i:i + 1]
        expected = row @ layer.W + layer.b
        assert np.array_equal(layer.forward(row, training=False), expected)
        assert np.array_equal(batch[i:i + 1], expected)
