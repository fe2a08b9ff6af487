"""Gaussian sample paths and Monte Carlo variance estimates.

Paths are generated by circulant embedding of the covariance sequence when
the embedding spectrum is nonnegative (Wood & Chan 1994; Dietrich & Newsam
1997), otherwise by spectral synthesis (a cosine sum over quadrature nodes
with independent Gaussian amplitudes).  Either generator is a fixed linear map
from two arrays of standard normals, the real and the imaginary parts, to the
paths.  The normal generator is counter-based (Philox) with ziggurat normals;
replicate blocks draw from spawned substreams of the seed, so results are
reproducible and independent of the block size.  `sample_paths` is the only
route that forms paths.  `monte_carlo_variance` pushes the weights once
through the generator's adjoint and reduces each block's normals by the two
vectors this gives, the real parts before the imaginary ones are drawn, so it
holds about one block of normals and never a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .covariance import covariance_sequence
from .ddouble import read_only
from .errors import ValidationError
from .quadrature import model_grid
from .spectra import as_measure

#: most negative circulant eigenvalue tolerated (relative to the largest)
#: before falling back to spectral synthesis
EMBEDDING_TOLERANCE = -1e-10

#: replicates per generation block
BLOCK = 4096


@dataclass(frozen=True)
class PathBatch:
    paths: np.ndarray          # replicates x length, read-only
    generator: str             # "circulant-embedding" | "spectral-synthesis"


def _rng_for_block(seed: int, block_index: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def _embedding_spectrum(r):
    # wrap r(0..M) into a circulant of size 2M and take its eigenvalues
    first_row = np.concatenate((r, r[-2:0:-1]))
    return np.fft.rfft(first_row).real, len(first_row)


@dataclass(frozen=True)
class _CirculantEmbedding:
    """The first `length` points of a real field of period `size` whose
    Hermitian spectrum is amplitude * (re + i im)."""

    amplitude: np.ndarray      # sqrt(eigenvalue / size) at each rfft frequency
    size: int
    length: int
    name = "circulant-embedding"

    @property
    def width(self):
        return len(self.amplitude)

    def paths(self, re, im):
        # Hermitian noise spectrum => real field of exactly the right covariance
        re[:, [0, -1]] *= math.sqrt(2.0)
        im[:, [0, -1]] = 0.0
        noise = np.empty(re.shape, dtype=complex)
        noise.real, noise.imag = re, im
        del re, im
        noise *= self.amplitude
        field = np.fft.irfft(noise, n=self.size)
        del noise
        field *= self.size
        field /= math.sqrt(2.0)
        return field[:, :self.length]

    def adjoint(self, c):
        """(g_re, g_im) with paths(re, im) @ c = re @ g_re + im @ g_im: the
        field counts the interior frequencies twice over sqrt 2, and the two
        real ones once, where the rfft of c is real, so that their unused
        imaginary normals drop out."""
        g = np.fft.rfft(c, self.size) * self.amplitude
        g[1:-1] *= math.sqrt(2.0)
        return np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)


@dataclass(frozen=True)
class _SpectralSynthesis:
    """X(t) = sum_j sd_j (re_j cos + im_j sin)(lam_j t)."""

    lam: np.ndarray
    sd: np.ndarray             # one-sided: sqrt(2 f(lam) w), sqrt(mass) at atoms
    length: int
    name = "spectral-synthesis"

    @property
    def width(self):
        return len(self.lam)

    @cached_property
    def _basis(self):
        angles = np.outer(np.arange(self.length), self.lam)
        return np.cos(angles), np.sin(angles)

    def paths(self, re, im):
        cos_t, sin_t = self._basis
        return (re * self.sd) @ cos_t.T + (im * self.sd) @ sin_t.T

    def adjoint(self, c):
        """(g_re, g_im) with paths(re, im) @ c = re @ g_re + im @ g_im."""
        cos_t, sin_t = self._basis
        return self.sd * (c @ cos_t), self.sd * (c @ sin_t)


def _plan(measure, length: int, replicates: int, seed: int):
    """The measure's path generator at this length, and per block of at most
    BLOCK replicates a function drawing the block's next (replicates x width)
    normals from its own substream: the real parts first, then the imaginary
    ones.  Both entry points read this one choice and these draws."""
    measure = as_measure(measure)
    if length < 1 or replicates < 1:
        raise ValidationError("length and replicates must be positive")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    r = covariance_sequence(measure, 2 * length).values

    spectrum, size = _embedding_spectrum(r)
    scale = float(np.max(spectrum))
    if float(np.min(spectrum)) < EMBEDDING_TOLERANCE * scale:
        generator = _synthesis(measure, length)
    else:
        amplitude = np.sqrt(np.maximum(spectrum, 0.0) / size)
        generator = _CirculantEmbedding(amplitude, size, length)
    draws = (partial(_rng_for_block(seed, b).standard_normal,
                     (min(BLOCK, replicates - lo), generator.width))
             for b, lo in enumerate(range(0, replicates, BLOCK)))
    return generator, draws


def _synthesis(measure, length):
    """Cosine-sum fallback over the density's quadrature nodes and the atoms."""
    model = measure.density
    lam, w = model_grid(model, osc_k=length)
    sd = np.sqrt(2.0 * w * model.values(lam))        # one-sided: 2 f(lam) w
    return _SpectralSynthesis(np.concatenate([lam] + [[abs(a)] for a, _ in measure.atoms]),
                              np.concatenate([sd] + [[math.sqrt(m)] for _, m in measure.atoms]),
                              length)


def sample_paths(measure, length: int, replicates: int, seed: int) -> PathBatch:
    """Zero-mean stationary Gaussian paths with the measure's covariance."""
    generator, draws = _plan(measure, length, replicates, seed)
    out = np.empty((replicates, length))
    lo = 0
    for draw in draws:
        block = generator.paths(draw(), draw())
        out[lo:lo + len(block)] = block
        lo += len(block)
    return PathBatch(paths=read_only(out), generator=generator.name)


@dataclass(frozen=True)
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
    generator, draws = _plan(measure, len(c), replicates, seed)
    g_re, g_im = generator.adjoint(c)
    # each block's real normals are reduced, and freed, before its imaginary ones are drawn
    stats = np.concatenate([draw() @ g_re + draw() @ g_im for draw in draws])
    estimate, se = _jackknife(stats)
    return MonteCarloVariance(estimate=estimate, standard_error=se, generator=generator.name)


def _jackknife(stats):
    """The sample variance of stats and its jackknife standard error.  Leaving
    replicate i out gives the variance (S - n d_i^2 / (n - 1)) / (n - 2), d
    the deviations from the mean and S their sum of squares, so the spread of
    the leave-one-out variances is that of d^2, scaled; formed from d, it
    keeps the digits that sums of x and x^2 lose to cancellation."""
    n = len(stats)
    dev2 = (stats - stats.mean()) ** 2
    spread = math.sqrt((n - 1) / n * float(np.sum((dev2 - dev2.mean()) ** 2)))
    return float(dev2.sum() / (n - 1)), n / ((n - 1) * (n - 2)) * spread
