"""Synthetic sparse-episode generator.

Each episode is driven by a latent AR(1) state; hourly true values are a
fixed linear readout of that state plus observation noise. A small dense
variable group is observed most hours while the remaining variables are
observed rarely, mimicking the heavy per-variable missingness of real
charting data (overall missingness lands near 87% with the defaults).
Generation is deterministic: every episode draws from its own RNG stream
derived from (seed, episode_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ConfigurationError, Episode

_READOUT_STREAM = 0
_EPISODE_STREAM = 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus shape and sparsity knobs.

    `dense_var_count` variables are observed at `dense_rate` per hour, the
    rest at `sparse_rate`. The latent state evolves as
    z[h+1] = ar_coefficient * z[h] + noise, scaled to unit stationary variance.
    """

    n_episodes: int = 1000
    n_vars: int = 16
    latent_dim: int = 4
    stay_hours: tuple[int, int] = (48, 120)
    dense_var_count: int = 1
    dense_rate: float = 0.9
    sparse_rate: float = 0.08
    ar_coefficient: float = 0.95
    obs_noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_episodes < 0:
            raise ConfigurationError("n_episodes must be non-negative")
        if not 0 < self.latent_dim <= self.n_vars:
            raise ConfigurationError("latent_dim must be in 1..n_vars")
        if not 0 <= self.dense_var_count <= self.n_vars:
            raise ConfigurationError("dense_var_count must be in 0..n_vars")
        for r in (self.dense_rate, self.sparse_rate):
            if not 0.0 <= r <= 1.0:
                raise ConfigurationError("observation rates must lie in [0, 1]")
        if not 0.0 < self.ar_coefficient < 1.0:
            raise ConfigurationError("ar_coefficient must lie in (0, 1)")
        if not 0 <= self.obs_noise_std < np.inf:
            raise ConfigurationError(f"obs_noise_std must be non-negative and finite, got {self.obs_noise_std}")
        lo, hi = self.stay_hours
        if lo < 1 or hi < lo:
            raise ConfigurationError("stay_hours must be a non-empty positive range")


def readout_matrix(config: GeneratorConfig) -> np.ndarray:
    """Corpus-level readout mapping latent state to variable values (n_vars, latent_dim)."""
    rng = np.random.default_rng([config.seed, _READOUT_STREAM])
    return rng.standard_normal((config.n_vars, config.latent_dim))


def generate(config: GeneratorConfig) -> list[Episode]:
    """Generate the full corpus; identical config yields identical observations."""
    readout = readout_matrix(config)
    rates = np.full(config.n_vars, config.sparse_rate)
    rates[: config.dense_var_count] = config.dense_rate
    innov_std = math.sqrt(1.0 - config.ar_coefficient**2)
    lo, hi = config.stay_hours

    # latent states padded to the longest possible stay
    z = np.zeros((config.n_episodes, hi, config.latent_dim))
    innov = np.zeros((config.n_episodes, hi - 1, config.latent_dim))
    draws = []
    for eid in range(config.n_episodes):
        rng = np.random.default_rng([config.seed, _EPISODE_STREAM, eid])
        length = int(rng.integers(lo, hi + 1))
        z[eid, 0] = rng.standard_normal(config.latent_dim)
        innov[eid, : length - 1] = rng.standard_normal((length - 1, config.latent_dim)) * innov_std
        hs, fs = np.nonzero(rng.random((length, config.n_vars)) < rates[None, :])
        noise = rng.standard_normal((length, config.n_vars)) * config.obs_noise_std
        jitter = rng.random((length, config.n_vars))
        draws.append((length, hs, fs, hs + jitter[hs, fs], noise[hs, fs]))
    # the AR(1) recurrence is elementwise, so one step advances every episode at once
    for h in range(1, hi):
        z[:, h] = config.ar_coefficient * z[:, h - 1] + innov[:, h - 1]

    episodes = []
    for eid, (length, hs, fs, t, noise) in enumerate(draws):
        true_vals = z[eid, :length] @ readout.T  # (length, n_vars)
        value = true_vals[hs, fs] + noise
        episodes.append(Episode(episode_id=eid, t=t, var_id=fs, value=value, length_hours=float(length)))
    return episodes
