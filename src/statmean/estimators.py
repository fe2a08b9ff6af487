"""Competing weight vectors for the mean and their variances.

Weights are indexed k = 0..n over the sample X(0..n), always summing to one
(unbiasedness).  `variance_under` evaluates any weights against any spectral
measure through the covariance quadratic form; for uniform weights (the
sample mean) it also runs the independent Fejer-kernel integral route and
insists the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ddouble as dd
from .covariance import covariance_sequence
from .errors import AccuracyError, ValidationError
from .quadrature import model_grid
from .spectra import TWO_PI, SpectralModel, as_measure, check_alpha
from .toeplitz import EstimatorWeights, blue_solve, quadratic_form, system_for


def lse_weights(n: int) -> EstimatorWeights:
    """The sample mean: uniform weights 1/(n+1)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    return EstimatorWeights(np.full(n + 1, 1.0 / (n + 1)))


def parabolic_weights(n: int) -> EstimatorWeights:
    """c_k = 6n/(n^2-1) * (k/n)(1 - k/n); endpoints zero, exact unit sum."""
    if n < 2:
        raise ValidationError("parabolic weights need n >= 2")
    k = np.arange(n + 1, dtype=float)
    c = 6.0 * n / (n * n - 1.0) * (k / n) * (1.0 - k / n)
    return EstimatorWeights(c)


def adenstedt_weights(n: int, alpha: float) -> EstimatorWeights:
    """c_k proportional to C(n,k) B(a+k+1, a+n-k+1), normalised to unit sum.

    The ratio recurrence c_{k+1}/c_k = (n-k)(a+k+1) / ((k+1)(a+n-k)) runs in
    double-double from c_0 = 1, whose factors a+k+1 and a+n-k two_sum forms
    exactly; the symmetrisation and the normalisation are double-double too,
    so each weight is rounded once.
    """
    check_alpha(alpha)
    if n < 0:
        raise ValidationError("n must be nonnegative")
    k = np.arange(n, dtype=float)
    ratios = (dd.DD(*dd.two_sum(k + 1.0, alpha)) * (n - k)
              / (dd.DD(*dd.two_sum(n - k, alpha)) * (k + 1.0)))
    c = dd.DD(np.append(1.0, ratios.hi), np.append(0.0, ratios.lo)).cumprod()
    c = c + c[::-1]                  # the exact symmetry c_k = c_{n-k}
    return EstimatorWeights(np.asarray(c / c.sum()))


def adenstedt_variance_closed_form(n: int, alpha: float) -> float:
    """B(n+1, 2a+1) / B(a+1, a+1) = binom(2a, a) n! / (2a+2)_n: the optimal
    variance under f_alpha, in double-double."""
    check_alpha(alpha)
    return float(dd.central_binomial(alpha) * _factorial_ratio(n, alpha))


def _factorial_ratio(n: int, alpha: float) -> dd.DD:
    """n! / (2a+2)_n = prod_{j<=n} j / (j+2a+1) in double-double, each j+2a+1
    formed exactly by two_sum."""
    j = np.arange(1.0, n + 1.0)
    factors = dd.DD(j, np.zeros(n)) / dd.DD(*dd.two_sum(j + 1.0, 2.0 * alpha))
    return dd.DD(np.append(1.0, factors.hi), np.append(0.0, factors.lo)).cumprod()[-1]


def gegenbauer_optimal(n: int, alpha: float) -> np.ndarray:
    """Optimal weights for f_alpha from the ultraspherical cosine expansion.

    Builds C_n^{(alpha+1)}(cos t) in the cos(m t) basis through the three-term
    recurrence n C_n = 2(n+a-1) x C_{n-1} - (n+2a-2) C_{n-2}, then reads the
    weights off the expansion sum_k c_k cos((n-2k) t).
    """
    check_alpha(alpha)
    a = alpha + 1.0
    # coef[j][m] = coefficient of cos(m t) in C_j^{(a)}(cos t); m has parity of j
    prev = np.zeros(n + 1)
    prev[0] = 1.0                     # C_0 = 1
    if n == 0:
        return np.array([1.0])
    cur = np.zeros(n + 1)
    cur[1] = 2.0 * a                  # C_1 = 2 a cos t
    for j in range(2, n + 1):
        # multiply cur by 2 cos t: cos(m t) -> cos((m+1) t) + cos((m-1) t)
        doubled = np.zeros(n + 1)
        doubled[1:] += cur[:-1]
        doubled[:-1] += cur[1:]
        doubled[1] += cur[0]          # 2 cos t * cos(0 t) contributes twice to m=1
        nxt = ((j + a - 1.0) * doubled - (j + 2.0 * a - 2.0) * prev) / j
        prev, cur = cur, nxt
    norm = float(1.0 / _factorial_ratio(n, alpha))          # C_n^{(a)}(1) = (2a)_n / n!
    c = np.empty(n + 1)
    for k in range(n + 1):
        m = abs(n - 2 * k)
        c[k] = cur[m] / norm if m == 0 else 0.5 * cur[m] / norm
    return c


def pseudo_best_weights(design_model: SpectralModel, n: int) -> EstimatorWeights:
    """Optimal weights computed under a surrogate (design) density.

    Evaluate them under the true measure with `variance_under`; design ==
    truth reproduces the optimal estimator, a constant design reproduces the
    sample mean.
    """
    measure = as_measure(design_model)
    if measure.density.szego_diverges():
        raise ValidationError("design model must be nondeterministic")
    return blue_solve(system_for(measure, n))[0]


@dataclass(frozen=True)
class FejerKernel:
    """F_T(lam) = [sin(T lam / 2)]^2 / (2 pi T [sin(lam / 2)]^2); integrates to 1."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("kernel order must be a positive integer")

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        t = self.order
        small = np.abs(np.sin(lam / 2.0)) < 1e-300
        den = np.where(small, 1.0, np.sin(lam / 2.0))
        vals = (np.sin(t * lam / 2.0) / den) ** 2 / (TWO_PI * t)
        return np.where(small, t / TWO_PI, vals)


@lru_cache(maxsize=8)
def _lse_fejer_variance(measure, n: int) -> float:
    """Independent route for the sample-mean variance, for the 8 (measure, n)
    asked last: `efficiency_finite` asks again what `variance_under` just did.

    Var = 2 pi/(n+1) * integral F_{n+1} f  + atom terms; the 2 pi factor makes
    the kernel route agree with the quadratic form for every density (checked
    against white noise, where the variance is r(0)/(n+1)).
    """
    model = measure.density
    kern = FejerKernel(n + 1)
    lam, w = model_grid(model, osc_k=n + 1)
    dens_part = TWO_PI / (n + 1) * 2.0 * float(np.dot(w, kern(lam) * model.values(lam)))
    atom_part = 0.0
    for angle, mass in measure.atoms:
        if angle == 0.0:
            transfer = 1.0
        else:
            transfer = (math.sin((n + 1) * angle / 2.0) /
                        ((n + 1) * math.sin(angle / 2.0))) ** 2
        atom_part += mass * transfer
    return dens_part + atom_part


def variance_under(weights: EstimatorWeights, measure) -> float:
    """Variance of sum c_k X(k) under the measure, via the quadratic form.

    For uniform weights, the sample mean, the Fejer-kernel integral is
    computed as well and the two routes must agree to 1e-9; disagreement
    raises AccuracyError.
    """
    measure = as_measure(measure)
    n = weights.order
    cov = covariance_sequence(measure, n)
    value = quadratic_form(weights, cov)
    if np.all(weights.coefficients == weights.coefficients[0]):
        other = _lse_fejer_variance(measure, n)
        if abs(other - value) > 1e-9 * max(1.0, abs(value)):
            raise AccuracyError(
                f"sample-mean variance routes disagree: quadratic form {value!r} "
                f"vs kernel integral {other!r}", achieved=abs(other - value))
    return value


def random_unbiased_weights(n: int, rng) -> EstimatorWeights:
    """Random unit-sum weights: symmetric Dirichlet recentered about uniform.

    The affine recentering u + 3(d - u) keeps the sum exactly one while
    allowing negative coefficients.
    """
    d = rng.dirichlet(np.ones(n + 1))
    u = np.full(n + 1, 1.0 / (n + 1))
    c = u + 3.0 * (d - u)
    c[0] += 1.0 - c.sum()
    return EstimatorWeights(c)
