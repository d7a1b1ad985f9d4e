"""Variational autoencoder (paper Section 4.2.2).

The paper's VAE maps video frames to a latent Gaussian and is used for two
things: (1) producing i.i.d. samples ``Sigma_T`` from the distribution a
model's training data was drawn from, and (2) embedding incoming frames into
the latent space where nonconformity scores are computed.

Two architectures are provided:

- ``"conv"`` -- the paper's architecture: 3 convolutional layers and 2 fully
  connected heads (mean, log-variance) in the encoder; 1 fully connected
  layer followed by 3 convolutions (with nearest-neighbour upsampling) in the
  decoder.  Sigmoid output, BCE + KL loss.
- ``"dense"`` -- an MLP encoder/decoder with the same loss, an order of
  magnitude faster on CPU; used by the test suite and the scaled-down
  experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU, Reshape, Sigmoid, Upsample2x
from repro.nn.losses import binary_cross_entropy, gaussian_kl
from repro.nn.network import Sequential
from repro.nn.optim import Adam
from repro.rng import SeedLike, ensure_rng

_LOGVAR_CLIP = 10.0


def _block_mean4(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=(3, 5))`` of a ``(N, C, H/4, 4, W/4, 4)`` block view,
    as ordered adds in place of the reduction's per-call set-up.

    numpy sums each block row left to right, then adds the four row sums
    to a +0.0 start, so the result keeps the reduction's bits (the start
    decides the sign of an all-zero block).
    """
    s = ((v[..., 0] + v[..., 1]) + v[..., 2]) + v[..., 3]
    return ((((0.0 + s[:, :, :, 0]) + s[:, :, :, 1]) + s[:, :, :, 2])
            + s[:, :, :, 3]) / 16


@dataclass
class VAEConfig:
    """Configuration for :class:`VAE`.

    ``input_shape`` is ``(C, H, W)``; for the conv architecture ``H`` and
    ``W`` must be divisible by 8 (three stride-2 convolutions).
    """

    input_shape: Tuple[int, int, int] = (1, 32, 32)
    latent_dim: int = 8
    architecture: str = "dense"
    hidden: int = 128
    conv_channels: Tuple[int, int, int] = (8, 16, 32)
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 5
    kl_weight: float = 1.0
    augment_recon: bool = True
    recon_weight: float = 1.0
    augment_profile: bool = True
    profile_weight: float = 0.5
    profile_bins: int = 4
    calibration_fraction: float = 0.4
    z_clip: float = 3.0
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.latent_dim <= 0:
            raise ConfigurationError(f"latent_dim must be positive: {self.latent_dim}")
        if self.architecture not in ("conv", "dense"):
            raise ConfigurationError(
                f"architecture must be 'conv' or 'dense', got {self.architecture!r}")
        if self.architecture == "conv":
            _, h, w = self.input_shape
            if h % 8 or w % 8:
                raise ConfigurationError(
                    f"conv VAE needs H, W divisible by 8, got {(h, w)}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.kl_weight < 0:
            raise ConfigurationError("kl_weight must be non-negative")
        if not 0.0 <= self.calibration_fraction < 1.0:
            raise ConfigurationError(
                f"calibration_fraction must be in [0, 1), got "
                f"{self.calibration_fraction}")
        if self.z_clip <= 0:
            raise ConfigurationError(
                f"z_clip must be positive, got {self.z_clip}")


@dataclass
class VAEHistory:
    """Per-epoch training losses."""

    total: List[float] = field(default_factory=list)
    reconstruction: List[float] = field(default_factory=list)
    kl: List[float] = field(default_factory=list)


class VAE:
    """Variational autoencoder over frames in ``[0, 1]``.

    Public surface:

    - :meth:`fit` -- train on a stack of frames.
    - :meth:`embed` -- posterior mean latent for frames (DI's frame embedding).
    - :meth:`sample_latents` -- i.i.d. latent samples ``Sigma_T`` drawn from
      the learned per-frame posteriors (paper Section 4.2.2).
    - :meth:`reconstruct` / :meth:`decode` -- generative direction.
    """

    def __init__(self, config: Optional[VAEConfig] = None) -> None:
        self.config = config or VAEConfig()
        self._rng = ensure_rng(self.config.seed)
        self._build()
        self._fitted = False
        self._train_means: Optional[np.ndarray] = None
        self._train_stds: Optional[np.ndarray] = None
        self._train_recon: Optional[np.ndarray] = None
        self._recon_mu = 0.0
        self._recon_sd = 1.0
        self._train_profiles: Optional[np.ndarray] = None
        self._profile_mu: Optional[np.ndarray] = None
        self._profile_sd: Optional[np.ndarray] = None
        self.history = VAEHistory()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        c, h, w = self.config.input_shape
        return c * h * w

    def _build(self) -> None:
        cfg = self.config
        seeds = self._rng.integers(0, 2**31 - 1, size=8)
        if cfg.architecture == "dense":
            d = self.input_dim
            self.encoder = Sequential([
                Dense(d, cfg.hidden, seed=int(seeds[0])), ReLU(),
                Dense(cfg.hidden, cfg.hidden, seed=int(seeds[1])), ReLU(),
            ])
            trunk_out = cfg.hidden
            self.decoder = Sequential([
                Dense(cfg.latent_dim, cfg.hidden, seed=int(seeds[2])), ReLU(),
                Dense(cfg.hidden, d, seed=int(seeds[3])), Sigmoid(),
            ])
        else:
            c, h, w = cfg.input_shape
            c1, c2, c3 = cfg.conv_channels
            self.encoder = Sequential([
                Conv2d(c, c1, 3, stride=2, padding=1, seed=int(seeds[0])), ReLU(),
                Conv2d(c1, c2, 3, stride=2, padding=1, seed=int(seeds[1])), ReLU(),
                Conv2d(c2, c3, 3, stride=2, padding=1, seed=int(seeds[2])), ReLU(),
                Flatten(),
            ])
            h8, w8 = h // 8, w // 8
            trunk_out = c3 * h8 * w8
            self.decoder = Sequential([
                Dense(cfg.latent_dim, trunk_out, seed=int(seeds[3])), ReLU(),
                Reshape((c3, h8, w8)),
                Upsample2x(),
                Conv2d(c3, c2, 3, stride=1, padding=1, seed=int(seeds[4])), ReLU(),
                Upsample2x(),
                Conv2d(c2, c1, 3, stride=1, padding=1, seed=int(seeds[5])), ReLU(),
                Upsample2x(),
                Conv2d(c1, c, 3, stride=1, padding=1, seed=int(seeds[6])),
                Sigmoid(),
            ])
        self.mean_head = Dense(trunk_out, cfg.latent_dim, seed=int(seeds[7]),
                               init="glorot")
        self.logvar_head = Dense(trunk_out, cfg.latent_dim,
                                 seed=int(seeds[7]) ^ 0x5DEECE, init="glorot")

    # ------------------------------------------------------------------
    # array plumbing
    # ------------------------------------------------------------------
    def _as_model_input(self, frames: np.ndarray) -> np.ndarray:
        """Coerce (N, D), (N, H, W) or (N, C, H, W) frames to model layout."""
        x = np.asarray(frames, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        c, h, w = self.config.input_shape
        if self.config.architecture == "dense":
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            if x.shape[1] != self.input_dim:
                raise DimensionMismatchError(
                    f"VAE built for {self.input_dim} features, got {x.shape[1]}")
            return x
        if x.ndim == 2:
            x = x.reshape(x.shape[0], c, h, w)
        elif x.ndim == 3:
            x = x[:, None, :, :]
        if x.shape[1:] != (c, h, w):
            raise DimensionMismatchError(
                f"VAE built for {(c, h, w)} frames, got {x.shape[1:]}")
        return x

    def _flat(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------
    def encode(self, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior ``(mean, logvar)`` for each frame."""
        x = self._as_model_input(frames)
        trunk = self.encoder.forward(x, training=False)
        mean = self.mean_head.forward(trunk, training=False)
        logvar = self.logvar_head.forward(trunk, training=False)
        return mean, np.clip(logvar, -_LOGVAR_CLIP, _LOGVAR_CLIP)

    def embed(self, frames: np.ndarray) -> np.ndarray:
        """Latent representation (posterior mean)."""
        mean, _ = self.encode(frames)
        return mean

    def augmented_embed(self, frames: np.ndarray) -> np.ndarray:
        """Deterministic embedding: posterior mean plus the augmentation
        coordinates (z-scored reconstruction error and row/column profiles).

        The noise-free counterpart of :meth:`sample_embed`, used by
        clustering baselines (ODIN) that need stable per-frame features
        rather than posterior samples.
        """
        x = self._as_model_input(frames)
        mean, _ = self.encode(x)
        parts = [mean]
        clip = self.config.z_clip
        if self.config.augment_recon and self._fitted:
            recon = self._recon_error(x, mean)
            scaled = np.clip((recon - self._recon_mu) / self._recon_sd,
                             -clip, clip)
            parts.append(self.config.recon_weight * scaled[:, None])
        if self.config.augment_profile and self._fitted:
            profiles = np.clip(
                (self._profiles(x) - self._profile_mu) / self._profile_sd,
                -clip, clip)
            parts.append(self.config.profile_weight * profiles)
        return np.hstack(parts)

    def sample_embed(self, frames: np.ndarray,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Posterior *sample* ``mean + eps * std`` for each frame.

        This is the embedding the Drift Inspector must use: ``Sigma_T`` is
        generated by sampling training-frame posteriors, so incoming frames
        have to be embedded the same way for null p-values to be uniform
        (comparing posterior means against posterior samples skews p-values
        toward 1 because means carry no posterior noise).

        With ``augment_recon`` (the default) the z-scored reconstruction
        error is appended as an extra coordinate.  A small latent can miss
        geometric drift (e.g. a camera-angle change) while still failing to
        *reconstruct* the shifted frames; the appended coordinate routes
        that signal through the same Sigma_T / KNN machinery.
        """
        x = self._as_model_input(frames)
        mean, logvar = self.encode(x)
        generator = rng if rng is not None else self._rng
        eps = generator.standard_normal(mean.shape)
        parts = [mean + eps * np.exp(0.5 * logvar)]
        clip = self.config.z_clip
        if self.config.augment_recon:
            recon = self._recon_error(x, mean)
            scaled = np.clip((recon - self._recon_mu) / self._recon_sd,
                             -clip, clip)
            parts.append(self.config.recon_weight * scaled[:, None])
        if self.config.augment_profile:
            profiles = np.clip(
                (self._profiles(x) - self._profile_mu) / self._profile_sd,
                -clip, clip)
            parts.append(self.config.profile_weight * profiles)
        return np.hstack(parts)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Decode latents to flattened frames in ``[0, 1]``."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.shape[1] != self.config.latent_dim:
            raise DimensionMismatchError(
                f"latent_dim is {self.config.latent_dim}, got {z.shape[1]}")
        out = self.decoder.forward(z, training=False)
        return self._flat(out)

    def reconstruct(self, frames: np.ndarray) -> np.ndarray:
        """Encode then decode; returns flattened reconstructions."""
        return self.decode(self.embed(frames))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, frames: np.ndarray, epochs: Optional[int] = None) -> VAEHistory:
        """Train on ``frames`` (values in [0, 1]) and cache posteriors.

        Following the inductive conformal martingale design, a held-out
        *calibration* split (``calibration_fraction`` of the frames) is
        excluded from gradient updates and used to compute the posterior /
        reconstruction / profile statistics behind ``Sigma_T``.  Statistics
        measured on training frames are biased (the network has seen them),
        which skews the stream's conformal p-values low and inflates false
        alarms; calibration frames are exchangeable with future null frames.
        """
        x_all = self._as_model_input(frames)
        n = x_all.shape[0]
        if n == 0:
            raise ConfigurationError("cannot fit VAE on zero frames")
        cfg = self.config
        n_cal = int(n * cfg.calibration_fraction)
        if n_cal >= 2:
            split = self._rng.permutation(n)
            cal_idx, train_idx = split[:n_cal], split[n_cal:]
        else:
            cal_idx = train_idx = np.arange(n)
        x_train = x_all[train_idx]
        optimizer = Adam(lr=cfg.lr)
        n_epochs = cfg.epochs if epochs is None else epochs
        n_train = x_train.shape[0]
        for _ in range(n_epochs):
            order = self._rng.permutation(n_train)
            epoch_total = epoch_rec = epoch_kl = 0.0
            batches = 0
            for start in range(0, n_train, cfg.batch_size):
                batch = x_train[order[start:start + cfg.batch_size]]
                rec, kl = self._train_step(batch, optimizer)
                epoch_rec += rec
                epoch_kl += kl
                epoch_total += rec + cfg.kl_weight * kl
                batches += 1
            self.history.reconstruction.append(epoch_rec / batches)
            self.history.kl.append(epoch_kl / batches)
            self.history.total.append(epoch_total / batches)
        x_all = x_all[cal_idx]
        mean, logvar = self.encode(x_all)
        self._train_means = mean
        self._train_stds = np.exp(0.5 * logvar)
        clip = self.config.z_clip
        if self.config.augment_recon:
            recon = self._recon_error(x_all, mean)
            self._recon_mu = float(recon.mean())
            self._recon_sd = float(max(recon.std(), 1e-9))
            self._train_recon = np.clip(
                (recon - self._recon_mu) / self._recon_sd, -clip, clip)
        if self.config.augment_profile:
            profiles = self._profiles(x_all)
            self._profile_mu = profiles.mean(axis=0)
            self._profile_sd = np.maximum(profiles.std(axis=0), 1e-9)
            self._train_profiles = np.clip(
                (profiles - self._profile_mu) / self._profile_sd,
                -clip, clip)
        self._fitted = True
        return self.history

    def _profiles(self, x: np.ndarray) -> np.ndarray:
        """Row/column intensity profiles binned to ``profile_bins`` each.

        These marginals capture the scene geometry (road position and tilt,
        landmark layout) that a small latent can miss, while per-frame
        object placement averages out.  They are z-scored with training
        statistics before being appended to the embedding.
        """
        flat = self._flat(x)
        n = flat.shape[0]
        c, h, w = self.config.input_shape
        # np.add.reduce(...) / count is np.mean without its per-call
        # wrapper.  One channel is its own mean: the row sums start from
        # +0.0, so a -0.0 pixel sums as the mean's +0.0 would.
        imgs = (flat.reshape(n, h, w) if c == 1
                else np.add.reduce(flat.reshape(n, c, h, w), axis=1) / c)
        bins = self.config.profile_bins
        rows = np.add.reduce(imgs, axis=2) / w   # (N, H)
        cols = np.add.reduce(imgs, axis=1) / h   # (N, W)

        def binned(arr: np.ndarray, size: int) -> np.ndarray:
            if size % bins == 0:
                per_bin = size // bins
                return np.add.reduce(
                    arr.reshape(arr.shape[0], bins, per_bin), axis=2) / per_bin
            # uneven sizes: interpolate onto the bin grid
            grid = np.linspace(0, size - 1, bins)
            idx = np.clip(np.round(grid).astype(int), 0, size - 1)
            return arr[:, idx]

        return np.hstack([binned(rows, h), binned(cols, w)])

    def _recon_error(self, x: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Per-frame reconstruction error on block-downsampled frames.

        Errors are measured after 4x block-mean downsampling: small moving
        objects (2-3 px) average out, so the statistic tracks how well the
        VAE reproduces the *background geometry* (road, landmarks, gradient)
        rather than irreducible per-frame object placement noise.  That
        keeps the augmented coordinate stable within a distribution and
        sharply elevated after geometric drift.
        """
        recon = self.decode(mean)
        flat = self._flat(x)
        c, h, w = self.config.input_shape
        factor = 4 if (h % 4 == 0 and w % 4 == 0) else 1
        if factor > 1:
            n = flat.shape[0]
            shape = (n, c, h // factor, factor, w // factor, factor)
            r = _block_mean4(recon.reshape(shape))
            f = _block_mean4(flat.reshape(shape))
            return (np.add.reduce((r - f) ** 2, axis=(1, 2, 3))
                    / (c * (h // factor) * (w // factor)))
        return np.add.reduce((recon - flat) ** 2, axis=1) / flat.shape[1]

    def _train_step(self, batch: np.ndarray, optimizer: Adam) -> Tuple[float, float]:
        cfg = self.config
        trunk = self.encoder.forward(batch, training=True)
        mean = self.mean_head.forward(trunk, training=True)
        logvar = np.clip(self.logvar_head.forward(trunk, training=True),
                         -_LOGVAR_CLIP, _LOGVAR_CLIP)
        eps = self._rng.standard_normal(mean.shape)
        std = np.exp(0.5 * logvar)
        z = mean + eps * std
        recon = self.decoder.forward(z, training=True)
        rec_loss, drecon = binary_cross_entropy(
            self._flat(recon), self._flat(batch))
        kl_loss, dmean_kl, dlogvar_kl = gaussian_kl(mean, logvar)
        dz = self.decoder.backward(drecon.reshape(recon.shape))
        dmean = dz + cfg.kl_weight * dmean_kl
        dlogvar = dz * eps * 0.5 * std + cfg.kl_weight * dlogvar_kl
        dtrunk = (self.mean_head.backward(dmean)
                  + self.logvar_head.backward(dlogvar))
        self.encoder.backward(dtrunk)
        pairs = (self.encoder.param_grads() + self.decoder.param_grads()
                 + [(self.mean_head.W, self.mean_head.dW),
                    (self.mean_head.b, self.mean_head.db),
                    (self.logvar_head.W, self.logvar_head.dW),
                    (self.logvar_head.b, self.logvar_head.db)])
        optimizer.step(pairs)
        return rec_loss, kl_loss

    def elbo(self, frames: np.ndarray) -> float:
        """Negative loss (BCE + KL) on frames; higher is better."""
        x = self._as_model_input(frames)
        mean, logvar = self.encode(x)
        recon = self.decode(mean)
        rec_loss, _ = binary_cross_entropy(recon, self._flat(x))
        kl_loss, _, _ = gaussian_kl(mean, logvar)
        return -(rec_loss + self.config.kl_weight * kl_loss)

    # ------------------------------------------------------------------
    # i.i.d. sampling (paper Section 4.2.2)
    # ------------------------------------------------------------------
    def sample_latents(self, n: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``n`` i.i.d. latent samples forming ``Sigma_T``.

        Each sample picks a random training frame's posterior and draws from
        its Normal distribution, exactly the "randomly sample the Normal
        distribution using the learned mean and standard deviation" step of
        the paper.
        """
        if not self._fitted or self._train_means is None:
            raise NotFittedError("VAE.sample_latents requires a fitted VAE")
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        rng = ensure_rng(seed) if seed is not None else self._rng
        n_train = self._train_means.shape[0]
        # Draw indices without replacement when possible.  When more samples
        # than calibration frames are requested, the first and second halves
        # of the sample draw from *disjoint* frame subsets: duplicated
        # indices share their recon/profile coordinates (only the latent
        # noise differs), and a consumer that splits Sigma_T in half -- the
        # Drift Inspector's bag/calibration split -- must not see such twins
        # straddling the split, or calibration scores collapse and the
        # p-values de-calibrate.
        replace = n > n_train
        if replace:
            perm = rng.permutation(n_train)
            half_a, half_b = perm[: n_train // 2], perm[n_train // 2:]
            idx = np.concatenate([
                rng.choice(half_a, size=n // 2, replace=True),
                rng.choice(half_b, size=n - n // 2, replace=True),
            ])
        else:
            idx = rng.choice(n_train, size=n, replace=False)
        eps = rng.standard_normal((n, self.config.latent_dim))
        parts = [self._train_means[idx] + eps * self._train_stds[idx]]
        if self.config.augment_recon:
            parts.append(
                self.config.recon_weight * self._train_recon[idx][:, None])
        if self.config.augment_profile:
            parts.append(
                self.config.profile_weight * self._train_profiles[idx])
        return np.hstack(parts)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All weights and fitted statistics as a flat array mapping."""
        state = {}
        for prefix, net in (("encoder", self.encoder),
                            ("decoder", self.decoder)):
            for key, value in net.state_dict().items():
                state[f"{prefix}.{key}"] = value
        for prefix, head in (("mean_head", self.mean_head),
                             ("logvar_head", self.logvar_head)):
            state[f"{prefix}.W"] = head.W.copy()
            state[f"{prefix}.b"] = head.b.copy()
        if self._fitted:
            state["stats.train_means"] = self._train_means.copy()
            state["stats.train_stds"] = self._train_stds.copy()
            state["stats.recon_mu_sd"] = np.array(
                [self._recon_mu, self._recon_sd])
            if self._train_recon is not None:
                state["stats.train_recon"] = self._train_recon.copy()
            if self._train_profiles is not None:
                state["stats.train_profiles"] = self._train_profiles.copy()
                state["stats.profile_mu"] = self._profile_mu.copy()
                state["stats.profile_sd"] = self._profile_sd.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore weights and statistics saved by :meth:`state_dict`."""
        self.encoder.load_state_dict(
            {k[len("encoder."):]: v for k, v in state.items()
             if k.startswith("encoder.")})
        self.decoder.load_state_dict(
            {k[len("decoder."):]: v for k, v in state.items()
             if k.startswith("decoder.")})
        for prefix, head in (("mean_head", self.mean_head),
                             ("logvar_head", self.logvar_head)):
            head.W[...] = state[f"{prefix}.W"]
            head.b[...] = state[f"{prefix}.b"]
        if "stats.train_means" in state:
            self._train_means = np.asarray(state["stats.train_means"])
            self._train_stds = np.asarray(state["stats.train_stds"])
            self._recon_mu, self._recon_sd = map(
                float, state["stats.recon_mu_sd"])
            if "stats.train_recon" in state:
                self._train_recon = np.asarray(state["stats.train_recon"])
            if "stats.train_profiles" in state:
                self._train_profiles = np.asarray(
                    state["stats.train_profiles"])
                self._profile_mu = np.asarray(state["stats.profile_mu"])
                self._profile_sd = np.asarray(state["stats.profile_sd"])
            self._fitted = True

    @property
    def calibration_size(self) -> int:
        """Number of held-out calibration frames behind ``Sigma_T``.

        Requesting more than this many samples from :meth:`sample_latents`
        falls back to a smoothed bootstrap; keeping ``Sigma_T`` at or below
        this size preserves exact conformal calibration.
        """
        if self._train_means is None:
            raise NotFittedError("VAE not fitted")
        return int(self._train_means.shape[0])

    @property
    def is_fitted(self) -> bool:
        return self._fitted
