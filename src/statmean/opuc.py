"""Orthogonal polynomials on the unit circle from trigonometric moments.

The recursion runs on plain moments of the full measure (density plus atoms),
r(k) = integral e^{i k lam} d(mu) — the same numbers that fill the covariance
Toeplitz matrix, one shared normalization pinned by the white-noise tests.
With the Lebesgue measure f == 1 the orthonormal polynomials are
z^k / sqrt(2 pi), so reciprocal Christoffel sums carry an explicit 2 pi.

For a real even measure the recursion coefficients are real and the monic
pair satisfies

    P_{k+1}(z) = z P_k(z) - a_k P*_k(z),
    P*_{k+1}(z) = P*_k(z) - a_k z P_k(z),
    ||P_{k+1}||^2 = ||P_k||^2 (1 - a_k^2),

with a_k = <z P_k, 1> / ||P_k||^2.  This is the Levinson-Durbin recursion
of the covariance Toeplitz matrix: a_k is the negated reflection coefficient
and ||P_k||^2 the prediction error of order k (Simon, Orthogonal Polynomials on
the Unit Circle, 2005, ch. 1).  The recursion is therefore not run here but
read off the memoised double pass in `toeplitz`; only the probe values are
formed here.  The reciprocal of the degree-n reproducing kernel on the
diagonal, 1 / S_n(xi, xi), is the minimal squared norm over polynomials of
degree <= n normalized at xi; at xi = 1 this is exactly the optimal
mean-estimation variance, so both routes share one set of reflections and the
independent checks are dense-matrix oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .covariance import covariance_sequence
from .ddouble import read_only
from .errors import AccuracyError, NearTrivialMeasureError, ValidationError
from .quadrature import cosine_moments, model_grid
from .spectra import MINUS_INFINITY, TWO_PI, SpectralModel, as_measure, szego_integral
from .toeplitz import levinson_pass, solve_ones


@dataclass(frozen=True)
class OpucState:
    """Recursion output: coefficients, norms, and probe values up to `order`;
    the arrays are read-only and the probe map is a read-only mapping."""

    order: int
    verblunsky: np.ndarray               # a_0 .. a_{n-1}
    monic_norms: np.ndarray              # ||P_k||^2, k = 0..n
    moments: np.ndarray                  # r(0..n)
    phi_at_probes: dict                  # probe -> complex array of phi_k(probe)
    moments_lo: np.ndarray | None = None  # their low parts, when the closed form keeps them

    def kappa(self, m: int) -> float:
        """Leading coefficient of the orthonormal polynomial, 1/||P_m||."""
        return 1.0 / math.sqrt(self.monic_norms[m])


def szego_recursion(measure, n: int, probes=()) -> OpucState:
    """Read the moment recursion to order n off the Levinson pass, with probe values."""
    measure = as_measure(measure)
    if n < 1:
        raise ValidationError("order must be at least 1")
    measure.require_order(n)
    probes = tuple(complex(p) for p in probes)
    if not all(cmath.isfinite(p) for p in probes):
        raise ValidationError("probes must be finite complex numbers")
    cov = covariance_sequence(measure, n)
    r = cov.values
    entry = levinson_pass(r)
    # after a breakdown the reflections end with the offending one, which is
    # past the bound below, so the check raises before the short errors are read
    alphas = -entry.refl
    trivial = np.flatnonzero(np.abs(alphas) >= 1.0 - 1e-13)
    if trivial.size:
        k = int(trivial[0])
        raise NearTrivialMeasureError(
            f"recursion coefficient {k} has modulus {abs(alphas[k]):.17g}, numerically "
            f"at the unit bound; the measure is trivial at this order", index=k)
    norms = entry.errors
    roots = np.sqrt(norms)

    phi = {}
    for p in probes:
        vals = np.empty(n + 1, dtype=complex)
        vals[0] = 1.0 / roots[0]
        pk = pk_star = 1.0 + 0.0j          # monic P_0 = P*_0 = 1
        for k, (a_k, root) in enumerate(zip(alphas.tolist(), roots[1:].tolist()), 1):
            pk, pk_star = p * pk - a_k * pk_star, pk_star - a_k * p * pk
            vals[k] = pk / root
        phi[p] = read_only(vals)

    return OpucState(order=n, verblunsky=read_only(alphas), monic_norms=norms,
                     moments=r, phi_at_probes=MappingProxyType(phi), moments_lo=cov.lo)


def christoffel(state: OpucState, probe, m: int) -> float:
    """Minimal squared norm over degree <= m polynomials with value 1 at `probe`.

    Equals the reciprocal diagonal kernel 1 / sum_{k<=m} |phi_k(probe)|^2;
    at probe = 1 this is the optimal estimator variance at order m.
    """
    probe = complex(probe)
    if probe not in state.phi_at_probes:
        raise ValidationError(f"probe {probe} was not registered in the recursion")
    if not 0 <= m <= state.order:
        raise ValidationError("m must lie within the recursion order")
    with np.errstate(over="ignore"):          # an overflow reads 0, refused by _in_range
        value = 1.0 / np.sum(np.abs(state.phi_at_probes[probe][:m + 1]) ** 2)
    return float(_in_range(np.array([value]), m)[0])


def christoffel_curve(state: OpucState, probe) -> np.ndarray:
    """All orders at once: 1 / cumulative sum of |phi_k(probe)|^2."""
    probe = complex(probe)
    if probe not in state.phi_at_probes:
        raise ValidationError(f"probe {probe} was not registered in the recursion")
    with np.errstate(over="ignore"):          # an overflow reads 0, refused by _in_range
        return _in_range(1.0 / np.cumsum(np.abs(state.phi_at_probes[probe]) ** 2))


def _in_range(values, first=0):
    """values, the Christoffel values at orders first, first + 1, ..., unless
    one reads 0: at a subnormal r(0), 1 / r(0) overflows and the reciprocal
    sums vanish.  Values that are not finite are the caller's to refuse."""
    if np.isfinite(values).all() and not values.all():
        order = first + int(np.argmin(values != 0.0))
        raise AccuracyError(f"Christoffel value out of double range at order {order}")
    return values


def prediction_error(state: OpucState, m: int) -> float:
    """One-step-ahead prediction error from a length-m past: ||P_m||^2."""
    if not 0 <= m <= state.order:
        raise ValidationError("m must lie within the recursion order")
    return float(state.monic_norms[m])


def optimal_polynomial(state: OpucState, m: int) -> np.ndarray:
    """Coefficients of the minimizer S_m(z, 1) / S_m(1, 1); they sum to 1.

    The minimizer is the optimal estimator's weight vector of order m: the
    normalized solution of R x = 1 on the first m+1 moments, refined as
    `toeplitz.blue_solve` refines it.
    """
    if not 0 <= m <= state.order:
        raise ValidationError("m must lie within the recursion order")
    lo = None if state.moments_lo is None else state.moments_lo[:m + 1]
    x = solve_ones(state.moments[:m + 1], lo)
    return x / x.sum()


# ---------------------------------------------------------------------------
# limits inside the disk and the outer function
# ---------------------------------------------------------------------------

def poisson_weighted_geometric_mean(model: SpectralModel, xi: complex) -> float:
    """exp of the Poisson-kernel average of ln f at xi = r e^{i theta}."""
    if szego_integral(model) is MINUS_INFINITY:
        return 0.0
    xi = complex(xi)
    rad = abs(xi)
    theta = math.atan2(xi.imag, xi.real)
    lam, w = model_grid(model, base_panels=max(16, int(8 / max(1e-3, 1 - rad))))
    integrand = (model.log_values(lam) * _poisson(rad, theta - lam)
                 + model.log_values(-lam) * _poisson(rad, theta + lam))
    return math.exp(float(np.dot(w, integrand)) / TWO_PI)


def _poisson(r, delta):
    return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(delta) + r * r)


def christoffel_limit_in_disk(model: SpectralModel, xi: complex) -> float:
    """Limit of the Christoffel values at an interior point.

    2*pi*(1-|xi|^2) times the Poisson-weighted geometric mean of f; zero when
    the log-integral diverges.  At xi = 0 this is the classical infinite-past
    prediction error 2*pi*G(f).
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise ValidationError("xi must lie strictly inside the unit disk; "
                              "boundary values go through the recursion itself")
    g = poisson_weighted_geometric_mean(model, xi)
    return TWO_PI * g * (1.0 - abs(xi) ** 2)


@dataclass(frozen=True)
class SzegoFunctionEval:
    """Outer-function value D(f, z) with the log-density Fourier tail used,
    read-only."""

    point: complex
    value: complex
    log_fourier: np.ndarray


def szego_function(model: SpectralModel, z: complex) -> SzegoFunctionEval:
    """D(f, z) = exp(d_0/2 + sum_{k>=1} d_k z^k) inside the disk.

    d_k are the Fourier coefficients of ln f (real and even here); the series
    is truncated adaptively, doubling from 64 terms, once a geometric bound on
    the remainder falls below 1e-10 or at 4096 terms.  |D|^2 has radial
    boundary values f, and D(f, 0)^2 is the geometric mean of f.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValidationError("z must lie strictly inside the unit disk")
    if szego_integral(model) is MINUS_INFINITY:
        raise ValidationError("outer function requires a convergent log-integral")
    if not model.is_even():
        raise ValidationError("outer-function evaluation assumes an even density")

    radius = abs(z)
    terms = 64
    while True:
        lam, w = model_grid(model, osc_k=terms)
        d = cosine_moments(lam, w, model.log_values(lam), terms) / TWO_PI
        tail = np.max(np.abs(d[terms // 2:terms])) if radius == 0.0 else (
            np.max(np.abs(d[terms // 2:terms])) * radius ** (terms // 2) / (1.0 - radius))
        if tail < 1e-10 or terms >= 4096:
            break
        terms *= 2
    k = np.arange(1, terms + 1)
    log_d = 0.5 * d[0] + np.sum(d[1:terms + 1] * z ** k)
    return SzegoFunctionEval(point=z, value=np.exp(log_d), log_fourier=read_only(d[:terms + 1]))
