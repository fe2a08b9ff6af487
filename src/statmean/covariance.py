"""Covariance sequences r(0..n) from spectral measures.

A variant with a closed form computes it itself (`SpectralModel.covariances`),
written once over an arithmetic this module supplies: numpy float64 arrays
for precision="double", numpy object arrays of 40-digit mpmath numbers for
precision="dd".  The closed forms, the same in both precisions, cover models
that reduce to a power-at-origin factor times a finite trigonometric
polynomial (white noise, pure-MA ARMA, fractional factors of those, products,
scalings), arc-supported indicators and their scalings, and shifts of any of
these by 0 or pi; a flat-zero density is integrated by 40-digit Gauss-Legendre
quadrature in double-double.  The first group rests on r_alpha from one ratio
recurrence, carried in double-double and rounded once for double, at 40
digits for double-double.  Every other density goes through singularity-graded
double quadrature with a refinement cross-check at absolute tolerance 1e-12
per coefficient, and has no double-double form.

The double-double path produces covariances accurate to ~1e-32, required by
the exponential-decay studies where Toeplitz variances reach the square of
double rounding error.  The 40-digit values are stored as two float arrays:
`values` holds each rounded to double (the hi part), and `lo` the remainder.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import binom, gammaln

from . import ddouble as dd
from . import quadrature
from .errors import AccuracyError, NearSingularError, ValidationError
from .memo import BoundedMemo, read_only
from .spectra import as_measure

#: absolute tolerance per quadrature coefficient
QUAD_TOL = 1e-12


def falpha_covariance_array(alpha: float, kmax: int) -> np.ndarray:
    """r_alpha(0..kmax) by the ratio recurrence r(k+1) = r(k) (k-a)/(k+a+1)
    from r(0) = binom(2a, a), carried in double-double and rounded once.  k-a
    and k+1+a are exact double-double values, so at an integer a the factor
    k-a is an exact 0 and every later lag an exact +0.0."""
    if not alpha > -0.5:
        raise ValidationError("alpha must satisfy alpha > -1/2")
    k = np.arange(kmax, dtype=float)
    ratios = dd.DD(*dd.two_sum(k, -alpha)) / dd.DD(*dd.two_sum(k + 1.0, alpha))
    factors = dd.DD(np.append(binom(2.0 * alpha, alpha), ratios.hi), np.append(0.0, ratios.lo))
    return np.asarray(factors.cumprod())


def covariance_exact_falpha(alpha: float, k: int) -> float:
    """r_alpha(k) = (-1)^k Gamma(2a+1) / (Gamma(a+k+1) Gamma(a-k+1))."""
    return float(falpha_covariance_array(alpha, abs(int(k)))[-1])


class Asymptote(NamedTuple):
    value: float
    degenerate: bool


def covariance_asymptote_falpha(alpha: float, k: int) -> Asymptote:
    """C_alpha * k^(-2*alpha-1) with C_alpha = Gamma(2a+1)(-sin pi*a)/pi.

    At alpha = 0 or a positive integer sin(pi*alpha) = 0 and the asymptote
    degenerates; the value is then an exact 0 and the flag is set.
    """
    if not alpha > -0.5:
        raise ValidationError("alpha must satisfy alpha > -1/2")
    if k < 1:
        raise ValidationError("asymptote needs k >= 1")
    s = math.sin(math.pi * alpha)
    if alpha == 0.0 or (alpha > 0 and abs(alpha - round(alpha)) < 1e-15):
        return Asymptote(0.0, True)
    c_alpha = math.exp(float(gammaln(2.0 * alpha + 1.0))) * (-s) / math.pi
    return Asymptote(c_alpha * float(k) ** (-2.0 * alpha - 1.0), False)


@dataclass(frozen=True)
class CovarianceSequence:
    """Values r(0..n) with provenance and precision metadata.  The arrays are
    read-only copies of those given."""

    values: np.ndarray
    provenance: str                       # "exact" | "quadrature"
    precision: str = "double"             # "double" | "dd"
    lo: np.ndarray | None = None          # low parts, r = values + lo, when precision == "dd"

    def __post_init__(self):
        for name in ("values", "lo"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(np.array(value, dtype=float)))
        if self.lo is not None and self.lo.shape != self.values.shape:
            raise ValidationError("low parts must match the values in length")
        if self.values[0] <= 0.0:
            raise ValidationError("r(0) must be positive (non-degenerate process)")
        if np.any(np.abs(self.values[1:]) > self.values[0] * (1.0 + 1e-10) + 1e-300):
            raise ValidationError("|r(k)| <= r(0) violated; not a covariance sequence")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def check_positive_definite(self) -> bool:
        """Whether a Levinson factorization of the Toeplitz matrix succeeds."""
        from .toeplitz import reflection_coefficients
        try:
            return bool(np.all(np.abs(reflection_coefficients(self.values)) < 1.0))
        except NearSingularError:
            return False


# -- quadrature path ---------------------------------------------------------

def _cosine_moments(lam, w, fvals, kmax):
    """m[k] = 2 * sum w * cos(k*lam) * f via the Chebyshev recurrence in k."""
    fw = w * fvals
    out = np.empty(kmax + 1)
    out[0] = 2.0 * fw.sum()
    if kmax == 0:
        return out
    ckm1 = np.ones_like(lam)
    ck = np.cos(lam)
    two_cos = 2.0 * ck
    out[1] = 2.0 * np.dot(ck, fw)
    for k in range(2, kmax + 1):
        ckm1, ck = ck, two_cos * ck - ckm1
        out[k] = 2.0 * np.dot(ck, fw)
    return out


def _quadrature_density_covariances(model, kmax, tol=QUAD_TOL):
    # a power singularity numerically at -1 cannot be graded to tolerance in
    # double precision; detect that analytically instead of trusting two
    # identically-capped grids that would agree on the wrong answer
    for s in model.singularities():
        if (s.kind == "algebraic" and s.exponent is not None and s.exponent < 0.0
                and quadrature.depth_for_exponent(s.exponent) >= quadrature.MAX_SINGULAR_PANELS):
            residual = 2.0 ** (-quadrature.MAX_SINGULAR_PANELS * (1.0 + s.exponent))
            raise AccuracyError(
                f"covariance quadrature cannot reach {tol:g} for a power "
                f"singularity with exponent {s.exponent:g}; unresolved relative "
                f"mass ~{residual:.3g}", achieved=residual)
    grids = [
        dict(base_panels=8, depth=quadrature.SINGULAR_PANELS),
        dict(base_panels=13, depth=quadrature.SINGULAR_PANELS + 8),
        dict(base_panels=21, depth=quadrature.SINGULAR_PANELS + 16, nodes=48),
    ]
    prev = None
    achieved = math.inf
    for g in grids:
        lam, w = quadrature.model_grid(model, osc_k=kmax, **g)
        cur = _cosine_moments(lam, w, model.values(lam), kmax)
        if prev is not None:
            achieved = float(np.max(np.abs(cur - prev)))
            if achieved <= tol:
                return cur
        prev = cur
    raise AccuracyError(
        f"covariance quadrature did not converge to {tol:g} "
        f"(achieved {achieved:.3g})", achieved=achieved)


#: covariances of the 64 models used last, per precision, at the largest order asked
_COV_CACHE = BoundedMemo(64)


def covariance_sequence(measure, n: int, precision: str = "double") -> CovarianceSequence:
    """r(0..n) of a measure: density Fourier coefficients plus atom cosines.

    The density's closed form is taken in the precision's arithmetic; without
    one, double precision integrates it and double-double refuses.
    """
    measure = as_measure(measure)
    if n < 0:
        raise ValidationError("n must be nonnegative")
    measure.require_order(n)
    model = measure.density
    if not model.is_even():
        raise ValidationError(
            "covariances of a density shifted off 0/pi are complex-valued; reduce "
            "the shifted-regression problem to the unshifted one first")
    ar = _arithmetic(precision)
    key = (model.key(), precision)
    cached = _COV_CACHE.get(key)
    if cached is not None and cached[0] >= n:
        dens, prov = cached[1][:n + 1], cached[2]
    else:
        found = (np.zeros(n + 1), "exact") if model.zero_density() else model.covariances(n, ar)
        if found is None and precision == "dd":
            raise ValidationError(
                "extended-precision covariances need a closed form, the same set in both "
                "precisions: white noise, power-at-origin, pure-MA, their fractional "
                "factors, products and scalings, arc-supported, shifts of these by 0 or pi, "
                "and flat-zero (by 40-digit quadrature)")
        dens, prov = found or (_quadrature_density_covariances(model, n), "quadrature")
        _COV_CACHE.put(key, (n, dens, prov))
    k = ar.arange(n + 1)
    for angle, mass in measure.atoms:
        dens = dens + ar.cos(k * ar.num(angle)) * ar.num(mass)
    if precision == "double":
        return CovarianceSequence(dens, prov)
    hi = dens.astype(float)
    return CovarianceSequence(hi, prov, precision="dd", lo=(dens - hi).astype(float))


# -- arithmetics -------------------------------------------------------------

#: what a variant's closed form needs of an arithmetic beyond + - * /: the
#: array dtype, `num` converting a double parameter, integer lags by `arange`,
#: pi, elementwise sin and cos, r_alpha(0..kmax) by `falpha`, and `flat_zero`,
#: r(0..kmax) of exp(-|lam|^-a) by quadrature where the arithmetic has one
_Arithmetic = namedtuple("_Arithmetic", "dtype num arange pi sin cos falpha flat_zero")

_DOUBLE = _Arithmetic(float, float, np.arange, math.pi, np.sin, np.cos,
                      falpha_covariance_array, None)


def _arithmetic(precision: str) -> _Arithmetic:
    """numpy float64 arrays, or numpy object arrays of 40-digit mpmath numbers."""
    if precision == "double":
        return _DOUBLE
    if precision != "dd":
        raise ValidationError(f"unknown precision {precision!r}")
    mp = _mp()
    return _Arithmetic(object, mp.mpf, lambda *a: np.arange(*a).astype(object), mp.pi,
                       np.frompyfunc(mp.sin, 1, 1), np.frompyfunc(mp.cos, 1, 1),
                       _mp_falpha, _mp_flatzero)


def _mp():
    import mpmath
    mpmath.mp.dps = 40
    return mpmath


def _mp_falpha(alpha, kmax):
    """The ratio recurrence of `falpha_covariance_array` at 40 digits."""
    mp = _mp()
    a = mp.mpf(alpha)
    k = np.arange(kmax).astype(object)
    factors = np.concatenate(([mp.binomial(2 * a, a)], (k - a) / (k + 1 + a)))
    return np.multiply.accumulate(factors)


def _mp_flatzero(a, kmax):
    """Composite Gauss-Legendre for r(k) of exp(-|lam|^-a) at 40 digits.

    The integrand underflows to below 1e-45 for lam < (45*ln 10)^(-1/a), so
    integration starts there; panels resolve the fastest oscillation.
    """
    mp = _mp()
    cut = float((45.0 * math.log(10.0)) ** (-1.0 / a))
    h = min(6.0 / max(kmax, 1), 0.05)
    panels = int(math.ceil((math.pi - cut) / h))
    edges = np.linspace(cut, math.pi, panels + 1)
    xs, ws = _mp_gl_nodes(24)
    lam, wts, fv = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (mp.mpf(lo) + mp.mpf(hi)) / 2
        half = (mp.mpf(hi) - mp.mpf(lo)) / 2
        for x, w in zip(xs, ws):
            point = mid + half * x
            lam.append(point)
            wts.append(half * w)
            fv.append(mp.exp(-point ** mp.mpf(-a)))
    out = []
    cos_prev = [mp.mpf(1)] * len(lam)
    cos_cur = [mp.cos(p) for p in lam]
    two_cos = [2 * c for c in cos_cur]
    out.append(2 * mp.fsum(w * f for w, f in zip(wts, fv)))
    if kmax >= 1:
        out.append(2 * mp.fsum(w * f * c for w, f, c in zip(wts, fv, cos_cur)))
    for _ in range(2, kmax + 1):
        cos_prev, cos_cur = cos_cur, [t * c - p for t, c, p in zip(two_cos, cos_cur, cos_prev)]
        out.append(2 * mp.fsum(w * f * c for w, f, c in zip(wts, fv, cos_cur)))
    return np.array(out, dtype=object)


@functools.lru_cache(maxsize=None)
def _mp_gl_nodes(m):
    """Gauss-Legendre nodes at working precision via Newton on P_m."""
    mp = _mp()

    def legendre(x):
        """(P_m(x), P_m'(x)) by the three-term recurrence."""
        p0, p1 = mp.mpf(1), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, m * (x * p1 - p0) / (x * x - 1)

    xs, ws = [], []
    for i in range(1, m + 1):
        x = mp.mpf(math.cos(math.pi * (i - 0.25) / (m + 0.5)))
        for _ in range(60):
            p, dp = legendre(x)
            dx = p / dp
            x -= dx
            if abs(dx) < mp.mpf("1e-45"):
                break
        dp = legendre(x)[1]
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws
