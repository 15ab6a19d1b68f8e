"""Gaussian embedding noise for the passive party.

The noise scale follows the Gaussian-differential-privacy calibration

    sigma = scale_constant * minibatch_size * sqrt(num_queries)
            / (privacy_mu * whole_batch_size)

so a larger privacy budget ``mu`` or a larger whole batch shrinks the noise,
while more queries or a bigger per-worker minibatch grow it.  ``mu = inf``
is the explicit opt-out: sigma is exactly 0.0 and :func:`add_noise` returns
its input untouched, drawing nothing from the stream — runs with privacy
disabled stay bit-identical to runs without the privacy plumbing.

``mu`` is nominal: the calibration assumes bounded sensitivity, but the
embeddings are ReLU outputs and are not clipped, so a run delivers no
formal GDP guarantee at any finite ``mu``.

Each passive worker owns a private stream seeded with (noise_seed XOR
worker_id); streams are PCG64 generators, so the mapping from seed to draws
is stable across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class GdpConfig:
    """Inputs to the noise calibration."""

    privacy_mu: float
    minibatch_size: int
    whole_batch_size: int
    num_queries: int
    scale_constant: float = 1.0

    def __post_init__(self) -> None:
        if not (self.privacy_mu > 0.0):  # also rejects nan
            raise ValueError("privacy_mu must be positive (inf disables noise)")
        if self.minibatch_size < 1 or self.whole_batch_size < 1:
            raise ValueError("batch sizes must be positive")
        if self.minibatch_size > self.whole_batch_size:
            raise ValueError("minibatch cannot exceed the whole batch")
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if self.scale_constant <= 0.0:
            raise ValueError("scale_constant must be positive")


def calibrate_sigma(config: GdpConfig) -> float:
    """Noise standard deviation for the given budget; 0.0 when mu is infinite."""
    if math.isinf(config.privacy_mu):
        return 0.0
    return (
        config.scale_constant
        * config.minibatch_size
        * math.sqrt(config.num_queries)
        / (config.privacy_mu * config.whole_batch_size)
    )


def worker_noise_rng(noise_seed: int, worker_id: int) -> np.random.Generator:
    """Per-worker noise stream: PCG64 seeded with noise_seed XOR worker_id."""
    return np.random.Generator(np.random.PCG64(noise_seed ^ worker_id))


@dataclass
class NoiseReport:
    """Running tally of every noise entry drawn, for empirical verification."""

    sigma: float = 0.0
    entries: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def record(self, noise: np.ndarray) -> None:
        self.entries += noise.size
        self.total += float(noise.sum())
        self.total_sq += float(np.square(noise).sum())

    @property
    def empirical_std(self) -> float:
        if self.entries < 2:
            return 0.0
        mean = self.total / self.entries
        return math.sqrt(max(self.total_sq / self.entries - mean * mean, 0.0))


def add_noise(
    embedding: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
    report: NoiseReport | None = None,
) -> np.ndarray:
    """Return embedding + N(0, sigma^2) noise; the input itself when sigma == 0.

    The sigma == 0 path must not touch ``rng``: disabling privacy leaves the
    rest of the run's randomness untouched.
    """
    if sigma < 0.0:
        raise ValueError("sigma cannot be negative")
    if sigma == 0.0:
        return embedding
    noise = rng.normal(0.0, sigma, size=embedding.shape)
    if report is not None:
        report.sigma = sigma
        report.record(noise)
    return embedding + noise
