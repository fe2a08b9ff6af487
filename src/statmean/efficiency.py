"""Finite-sample and asymptotic efficiencies relative to the optimal estimator.

Efficiency of an estimator is the ratio (optimal variance)/(its variance)
under the same measure, so finite-sample values never exceed 1.  The module
also evaluates every closed-form limit law the library verifies: the
short-memory constant 2*pi*f(0), the hyperbolic constant for power-law models,
over/underestimation limits of the fractional family, and the exact and
asymptotic sample-mean efficiencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ddouble as dd
from .covariance import covariance_sequence
from .errors import ValidationError
from .estimators import variance_under
from .spectra import TWO_PI, SpectralModel, as_measure, check_alpha
from .toeplitz import EstimatorWeights, blue_solve, system_for


@dataclass(frozen=True)
class EfficiencyReport:
    value: float
    numerator_variance: float
    denominator_variance: float


def efficiency_finite(weights: EstimatorWeights, measure) -> EfficiencyReport:
    """Var(optimal)/Var(weights) under the same measure at the weights' order."""
    measure = as_measure(measure)
    _, best = blue_solve(system_for(measure, weights.order))
    var = variance_under(weights, measure)
    return EfficiencyReport(best / var, best, var)


def overestimation_efficiency(alpha: float, beta: int) -> float:
    """Limit efficiency of the order-(alpha+beta) estimator under f_alpha.

    Gamma-product closed form, evaluated in log space:
    G(2a+2) G(a+b+1)^2 G(2a+4b+2) / [C(2b,b) G(a+1) G(a+2b+1) G(2a+2b+2)^2].
    """
    check_alpha(alpha)
    if beta != int(beta) or beta < 0:
        raise ValidationError("beta must be a nonnegative integer")
    beta = int(beta)
    a, b = float(alpha), float(beta)
    lg = math.lgamma
    log_val = (lg(2 * a + 2) + 2 * lg(a + b + 1) + lg(2 * a + 4 * b + 2)
               - lg(a + 1) - lg(a + 2 * b + 1) - 2 * lg(2 * a + 2 * b + 2)
               - (lg(2 * b + 1) - 2 * lg(b + 1)))
    return math.exp(log_val)


def lse_asymptotic_efficiency(alpha: float) -> float:
    """Limit efficiency of the sample mean under the power-law family.

    pi*a*(1-2a) / (B(a+1,a+1) sin(pi*a)) on (-1/2, 1/2) with the removable
    singularity at 0 filled by continuity (value 1); identically 0 for
    a >= 1/2 where the sample mean converges at a slower rate.
    """
    check_alpha(alpha)
    if alpha >= 0.5:
        return 0.0
    if alpha == 0.0:
        return 1.0
    inverse_beta = float(dd.central_binomial(alpha) * dd.DD(*dd.two_sum(2.0 * alpha, 1.0)))
    return math.pi * alpha * (1.0 - 2.0 * alpha) * inverse_beta / math.sin(math.pi * alpha)


def lse_efficiency_exact_falpha(n: int, alpha: float) -> float:
    """Exact finite-order sample-mean efficiency under f_alpha.

    Product/sum expression evaluated with log-space running products.  The
    inner index runs over the number of observations N = n + 1, which makes
    the value match the direct Toeplitz/kernel ratio at order n exactly.
    """
    check_alpha(alpha)
    if n < 1:
        raise ValidationError("order must be at least 1")
    if alpha == 0.0:
        return 1.0
    N = n + 1
    a = float(alpha)
    j = np.arange(2, N + 1, dtype=float)
    log_prod = float(np.log1p(2.0 * a / j).sum())
    # running product prod_{i=1}^{k-1} (i-a)/(i+a), then one extra 1/(k+a)
    total = (1.0 - 1.0 / N) / (1.0 + a)
    running = 1.0
    for k in range(2, N):
        running *= (k - 1.0 - a) / (k - 1.0 + a)
        total += (1.0 - k / N) * running / (k + a)
    bracket = 1.0 - 2.0 * a * total
    return float(1.0 / (math.exp(log_prod) * bracket))


def beran_kunsch_expansion(alpha: float) -> float:
    """Small-alpha expansion of the sample-mean limit efficiency."""
    if not abs(alpha) <= 0.2:
        raise ValidationError("expansion is stated for finite |alpha| <= 0.2")
    return 1.0 - (1.0 - math.pi ** 2 / 12.0) * (2.0 * alpha) ** 2


def underestimation_limit(alpha: int, g: SpectralModel) -> float:
    """lim n^{2a+2} Var(order-a estimator) when the truth is f_{a+1} * g.

    Equals [(2a+1)!/a!]^2 / pi times the integral of g; the integral of g is
    its covariance value at lag zero.
    """
    if not (alpha >= 0 and float(alpha).is_integer()):
        raise ValidationError("alpha must be a nonnegative integer")
    a = float(alpha)
    integral_g = covariance_sequence(as_measure(g), 0).values[0]
    factor = (math.gamma(2 * a + 2) / math.gamma(a + 1)) ** 2
    return factor / math.pi * integral_g


def short_memory_variance_limit(model: SpectralModel) -> float:
    """2*pi*f(0) for densities positive and continuous at the origin."""
    f0 = float(model.values(np.array(0.0)))
    exponent = model.origin_exponent()
    if not (f0 > 0.0 and math.isfinite(f0)) or (exponent is not None and exponent != 0.0):
        raise ValidationError(
            "density must be positive and continuous at 0; models with a "
            "power-law origin belong to the hyperbolic f_alpha pathway")
    return TWO_PI * f0


def general_class_asymptote(alpha: float, g0: float) -> float:
    """Constant of the hyperbolic law n^{2a+1} Var -> Gamma(2a+1) g(0) / B(a+1,a+1)."""
    check_alpha(alpha)
    if not (g0 > 0.0 and math.isfinite(g0)):
        raise ValidationError("g0 must be a positive real")
    # Gamma(2a+1) / B(a+1, a+1) = Gamma(2a+2) binom(2a, a)
    return math.gamma(2.0 * alpha + 2.0) * float(dd.central_binomial(alpha)) * g0
