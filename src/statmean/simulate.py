"""Gaussian sample paths and Monte Carlo variance estimates.

Paths are generated by circulant embedding of the covariance sequence when
the embedding spectrum is nonnegative, otherwise by spectral synthesis (a
cosine sum over quadrature nodes with independent Gaussian amplitudes).  The
normal generator is counter-based (Philox) with ziggurat normals; replicate
blocks draw from spawned substreams of the seed, so results are reproducible
and independent of the block size.  `monte_carlo_variance` reduces each block
to its weighted sums as it is drawn, so it never holds all the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import covariance_sequence
from .errors import ValidationError
from .quadrature import model_grid
from .spectra import as_measure

#: most negative circulant eigenvalue tolerated (relative to the largest)
#: before falling back to spectral synthesis
EMBEDDING_TOLERANCE = -1e-10

#: replicates per generation block
BLOCK = 4096


@dataclass
class PathBatch:
    paths: np.ndarray          # replicates x length
    generator: str             # "circulant-embedding" | "spectral-synthesis"


def _rng_for_block(seed: int, block_index: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def _embedding_spectrum(r):
    # wrap r(0..M) into a circulant of size 2M and take its eigenvalues
    first_row = np.concatenate((r, r[-2:0:-1]))
    return np.fft.rfft(first_row).real, len(first_row)


def sample_paths(measure, length: int, replicates: int, seed: int) -> PathBatch:
    """Zero-mean stationary Gaussian paths with the measure's covariance."""
    generator, blocks = _path_blocks(measure, length, replicates, seed)
    out = np.empty((replicates, length))
    lo = 0
    for block in blocks:
        out[lo:lo + len(block)] = block
        lo += len(block)
    return PathBatch(paths=out, generator=generator)


def _path_blocks(measure, length: int, replicates: int, seed: int):
    """(generator name, an iterator over the paths in blocks of at most BLOCK
    replicates), so that callers which reduce each path need not hold them all."""
    measure = as_measure(measure)
    if length < 1 or replicates < 1:
        raise ValidationError("length and replicates must be positive")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    r = covariance_sequence(measure, 2 * length).values

    spectrum, size = _embedding_spectrum(r)
    scale = float(np.max(spectrum))
    if float(np.min(spectrum)) < EMBEDDING_TOLERANCE * scale:
        return "spectral-synthesis", _synthesis_blocks(measure, length, replicates, seed)
    return "circulant-embedding", _circulant_embedding(spectrum, size, length, replicates, seed)


def _block_rngs(replicates: int, seed: int):
    """(size, generator) of each replicate block, from its own substream."""
    for b, lo in enumerate(range(0, replicates, BLOCK)):
        yield min(BLOCK, replicates - lo), _rng_for_block(seed, b)


def _circulant_embedding(spectrum, size, length, replicates, seed):
    amplitude = np.sqrt(np.maximum(spectrum, 0.0) / size)
    half = size // 2
    for m, rng in _block_rngs(replicates, seed):
        # Hermitian noise spectrum => real field of exactly the right covariance
        re = rng.standard_normal((m, half + 1))
        im = rng.standard_normal((m, half + 1))
        re[:, 0] *= math.sqrt(2.0)
        im[:, 0] = 0.0
        re[:, -1] *= math.sqrt(2.0)
        im[:, -1] = 0.0
        noise = np.empty((m, half + 1), dtype=complex)
        noise.real, noise.imag = re, im
        del re, im
        noise *= amplitude
        field = np.fft.irfft(noise, n=size)
        del noise
        field *= size
        field /= math.sqrt(2.0)
        yield field[:, :length]


def _synthesis_blocks(measure, length, replicates, seed):
    """Cosine-sum fallback: X(t) = sum_j s_j (A_j cos + B_j sin)(lam_j t)."""
    model = measure.density
    lam, w = model_grid(model, osc_k=length)
    sd = np.sqrt(2.0 * w * model.values(lam))        # one-sided: 2 f(lam) w
    angles = [lam]
    scales = [sd]
    for angle, mass in measure.atoms:
        angles.append(np.array([abs(angle)]))
        scales.append(np.array([math.sqrt(mass)]))
    lam = np.concatenate(angles)
    sd = np.concatenate(scales)
    t = np.arange(length)
    cos_t = np.cos(np.outer(t, lam))
    sin_t = np.sin(np.outer(t, lam))
    for m, rng in _block_rngs(replicates, seed):
        a = rng.standard_normal((m, len(lam))) * sd
        bcoef = rng.standard_normal((m, len(lam))) * sd
        yield a @ cos_t.T + bcoef @ sin_t.T


@dataclass
class MonteCarloVariance:
    estimate: float
    standard_error: float
    generator: str


def monte_carlo_variance(weights, measure, replicates: int, seed: int) -> MonteCarloVariance:
    """Empirical variance of sum c_k X(k) with a jackknife standard error,
    which leaves one replicate out of a variance and so needs at least 3."""
    if replicates < 3:
        raise ValidationError("the jackknife needs at least 3 replicates")
    c = np.asarray(getattr(weights, "coefficients", weights), dtype=float)
    generator, blocks = _path_blocks(measure, len(c), replicates, seed)
    stats = np.concatenate([block @ c for block in blocks])
    n = len(stats)
    mean = stats.mean()
    dev2 = (stats - mean) ** 2
    estimate = dev2.sum() / (n - 1)
    # leave-one-out variances from the sufficient sums
    s1 = stats.sum()
    s2 = (stats ** 2).sum()
    loo_mean = (s1 - stats) / (n - 1)
    loo_var = (s2 - stats ** 2 - (n - 1) * loo_mean ** 2) / (n - 2)
    se = math.sqrt((n - 1) / n * float(np.sum((loo_var - loo_var.mean()) ** 2)))
    return MonteCarloVariance(estimate=float(estimate), standard_error=se,
                              generator=generator)
