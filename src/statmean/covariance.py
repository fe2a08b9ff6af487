"""Covariance sequences r(0..n) from spectral measures.

Exact closed forms are used wherever the model reduces to a power-at-origin
factor times a finite trigonometric polynomial (white noise, pure-MA ARMA,
fractional factors of those, products, scalings, arc-supported indicators);
everything else goes through singularity-graded quadrature with a refinement
cross-check at absolute tolerance 1e-12 per coefficient.

The double-double path (precision="dd") produces covariances accurate to
~1e-32, required by the exponential-decay studies where Toeplitz variances
reach the square of double rounding error.  High-precision values are
generated with mpmath and stored as two float arrays: `values` holds each
rounded to double (the hi part), and `lo` the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from . import quadrature
from .errors import AccuracyError, ValidationError
from .memo import BoundedMemo
from .spectra import (TWO_PI, ArcSupported, ArfimaFactor, Arma, FlatZero,
                      FrequencyShifted, PowerAtOrigin, Product, Scaled,
                      SpectralMeasure, WhiteNoise, as_measure)

#: absolute tolerance per quadrature coefficient
QUAD_TOL = 1e-12


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 1e-12 and abs(x - round(x)) < 1e-12


def _signed_reciprocal_gamma_log(x: float):
    """(sign, log|Gamma(x)|) with sign from the parity of reflection counts.

    Returns (0, +inf) at non-positive integers, implementing the convention
    1/Gamma(x) = 0 there.
    """
    if _is_nonpositive_integer(x):
        return 0, math.inf
    if x > 0:
        return 1, float(gammaln(x))
    # Gamma(x) on (-m, -m+1) has sign (-1)^m; m = ceil(-x) reflections
    m = math.ceil(-x)
    sign = -1 if m % 2 else 1
    log_abs = math.log(math.pi) - math.log(abs(math.sin(math.pi * x))) - float(gammaln(1.0 - x))
    return sign, log_abs


def covariance_exact_falpha(alpha: float, k: int) -> float:
    """r_alpha(k) = (-1)^k Gamma(2a+1) / (Gamma(a+k+1) Gamma(a-k+1))."""
    if not alpha > -0.5:
        raise ValidationError("alpha must satisfy alpha > -1/2")
    k = abs(int(k))
    sign, log_tail = _signed_reciprocal_gamma_log(alpha - k + 1.0)
    if sign == 0:
        return 0.0
    log_val = float(gammaln(2.0 * alpha + 1.0)) - float(gammaln(alpha + k + 1.0)) - log_tail
    return (-1.0) ** k * sign * math.exp(log_val)


def falpha_covariance_array(alpha: float, kmax: int) -> np.ndarray:
    return np.array([covariance_exact_falpha(alpha, k) for k in range(kmax + 1)])


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


@dataclass
class CovarianceSequence:
    """Values r(0..n) with provenance and precision metadata."""

    values: np.ndarray
    provenance: str                       # "exact" | "quadrature"
    precision: str = "double"             # "double" | "dd"
    lo: np.ndarray | None = None          # low parts, r = values + lo, when precision == "dd"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.lo is not None:
            self.lo = np.asarray(self.lo, dtype=float)
            if self.lo.shape != self.values.shape:
                raise ValidationError("low parts must match the values in length")
        if self.values[0] <= 0.0:
            raise ValidationError("r(0) must be positive (non-degenerate process)")
        if np.any(np.abs(self.values[1:]) > self.values[0] * (1.0 + 1e-10) + 1e-300):
            raise ValidationError("|r(k)| <= r(0) violated; not a covariance sequence")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def check_positive_definite(self, order: int | None = None) -> bool:
        """Attempt a Levinson factorization of the leading Toeplitz block."""
        from .toeplitz import reflection_coefficients
        order = self.order if order is None else order
        try:
            refl = reflection_coefficients(self.values[:order + 1])
        except Exception:
            return False
        return bool(np.all(np.abs(refl) < 1.0))


# -- exact reduction ---------------------------------------------------------
#
# A model reduces to (alpha, C, gamma) when f = C * f_alpha(lam) * g(lam) with
# g a nonnegative trig polynomial sum_t gamma_|t| e^{i t lam}; then
# r(k) = C * [gamma_0 r_a(k) + sum_{t>=1} gamma_t (r_a(k+t) + r_a(k-t))].

def _reduce_exact(model):
    if isinstance(model, WhiteNoise):
        if model.level == 0.0:
            return 0.0, 0.0, np.array([1.0])
        return 0.0, TWO_PI * model.level, np.array([1.0])
    if isinstance(model, PowerAtOrigin):
        return model.alpha, 1.0, np.array([1.0])
    if isinstance(model, Arma) and not model.has_ar_part():
        theta = np.asarray(model.ma)
        gamma = np.correlate(theta, theta, mode="full")[len(theta) - 1:]
        return 0.0, model.scale, gamma
    if isinstance(model, Scaled):
        base = _reduce_exact(model.model)
        if base is None:
            return None
        a, c, g = base
        return a, c * model.factor, g
    if isinstance(model, ArfimaFactor):
        base = _reduce_exact(model.base)
        if base is None:
            return None
        a, c, g = base
        a_new = a - model.d
        if not a_new > -0.5:
            return None
        return a_new, c, g
    if isinstance(model, Product):
        left = _reduce_exact(model.left)
        right = _reduce_exact(model.right)
        if left is None or right is None:
            return None
        (a1, c1, g1), (a2, c2, g2) = left, right
        a = a1 + a2
        if a <= -0.5:
            return None
        # product of two symmetric trig polynomials: convolve full coefficient
        # vectors and keep the nonnegative-lag half
        f1 = np.concatenate((g1[:0:-1], g1))
        f2 = np.concatenate((g2[:0:-1], g2))
        full = np.convolve(f1, f2)
        mid = (len(full) - 1) // 2
        return a, c1 * c2 / TWO_PI, full[mid:]
    return None


def _exact_from_reduction(alpha, c, gamma, kmax):
    q = len(gamma) - 1
    ra = falpha_covariance_array(alpha, kmax + q)
    k = np.arange(kmax + 1)
    out = gamma[0] * ra[k]
    for t in range(1, q + 1):
        out = out + gamma[t] * (ra[k + t] + ra[np.abs(k - t)])
    return c * out


def _arc_covariances(alpha, level, kmax):
    k = np.arange(1, kmax + 1)
    out = np.empty(kmax + 1)
    out[0] = 2.0 * level * (math.pi - alpha)
    out[1:] = -2.0 * level * np.sin(k * alpha) / k
    return out


def _exact_density_covariances(model, kmax):
    """Exact r(0..kmax) of the density or None when no closed form applies."""
    if isinstance(model, ArcSupported):
        return _arc_covariances(model.alpha, model.level, kmax)
    if isinstance(model, Scaled) and isinstance(model.model, ArcSupported):
        return model.factor * _arc_covariances(model.model.alpha, model.model.level, kmax)
    if isinstance(model, FrequencyShifted) and abs(abs(model.shift) - math.pi) < 1e-15:
        inner = _exact_density_covariances(model.model, kmax)
        if inner is None:
            return None
        signs = np.where(np.arange(kmax + 1) % 2 == 0, 1.0, -1.0)
        return signs * inner
    red = _reduce_exact(model)
    if red is None:
        return None
    alpha, c, gamma = red
    if c == 0.0:
        return np.zeros(kmax + 1)
    return _exact_from_reduction(alpha, c, gamma, kmax)


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
    """r(0..n) of a measure: density Fourier coefficients plus atom cosines."""
    measure = as_measure(measure)
    if n < 0:
        raise ValidationError("n must be nonnegative")
    measure.require_order(n)
    from .spectra import is_even_density
    if not is_even_density(measure.density):
        raise ValidationError(
            "covariances of a density shifted off 0/pi are complex-valued; reduce "
            "the shifted-regression problem to the unshifted one first")
    if precision == "dd":
        return _covariance_sequence_dd(measure, n)
    if precision != "double":
        raise ValidationError(f"unknown precision {precision!r}")

    model = measure.density
    key = (model.key(), "double")
    cached = _COV_CACHE.get(key)
    if cached is not None and cached[0] >= n:
        dens, prov = cached[1][:n + 1].copy(), cached[2]
    else:
        exact = None if model.zero_density() else _exact_density_covariances(model, n)
        if model.zero_density():
            dens, prov = np.zeros(n + 1), "exact"
        elif exact is not None:
            dens, prov = exact, "exact"
        else:
            dens, prov = _quadrature_density_covariances(model, n), "quadrature"
        _COV_CACHE.put(key, (n, dens.copy(), prov))
    for angle, mass in measure.atoms:
        dens = dens + mass * np.cos(np.arange(n + 1) * angle)
    return CovarianceSequence(dens, prov)


# -- extended precision ------------------------------------------------------

def _mp():
    import mpmath
    mpmath.mp.dps = 40
    return mpmath


def _mp_falpha(alpha, kmax):
    mp = _mp()
    a = mp.mpf(alpha)
    out = []
    for k in range(kmax + 1):
        x = a - k + 1
        if x <= 0 and abs(x - mp.nint(x)) < mp.mpf("1e-30"):
            out.append(mp.mpf(0))
        else:
            out.append((-1) ** k * mp.gamma(2 * a + 1) / (mp.gamma(a + k + 1) * mp.gamma(x)))
    return out


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
    return out


_MP_GL_CACHE: dict = {}


def _mp_gl_nodes(m):
    """Gauss-Legendre nodes at working precision via Newton on P_m."""
    if m in _MP_GL_CACHE:
        return _MP_GL_CACHE[m]
    mp = _mp()
    xs, ws = [], []
    for i in range(1, m + 1):
        x = mp.mpf(math.cos(math.pi * (i - 0.25) / (m + 0.5)))
        for _ in range(60):
            p0, p1 = mp.mpf(1), x
            for j in range(2, m + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = m * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < mp.mpf("1e-45"):
                break
        p0, p1 = mp.mpf(1), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1)
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    _MP_GL_CACHE[m] = (xs, ws)
    return xs, ws


def _mp_density_covariances(model, kmax):
    mp = _mp()
    if isinstance(model, ArcSupported):
        a, lv = mp.mpf(model.alpha), mp.mpf(model.level)
        out = [2 * lv * (mp.pi - a)]
        out += [-2 * lv * mp.sin(a * k) / k for k in range(1, kmax + 1)]
        return out
    if isinstance(model, FlatZero):
        return _mp_flatzero(model.a, kmax)
    if isinstance(model, Scaled):
        inner = _mp_density_covariances(model.model, kmax)
        if inner is None:
            return None
        return [mp.mpf(model.factor) * v for v in inner]
    red = _reduce_exact(model)
    if red is not None:
        alpha, c, gamma = red
        ra = _mp_falpha(alpha, kmax + len(gamma) - 1)
        out = []
        for k in range(kmax + 1):
            acc = mp.mpf(gamma[0]) * ra[k]
            for t in range(1, len(gamma)):
                acc += mp.mpf(gamma[t]) * (ra[k + t] + ra[abs(k - t)])
            out.append(mp.mpf(c) * acc)
        return out
    return None


def _covariance_sequence_dd(measure, n):
    mp = _mp()
    model = measure.density
    key = (model.key(), "dd")
    cached = _COV_CACHE.get(key)
    if cached is not None and cached[0] >= n:
        vals = list(cached[1][:n + 1])
    else:
        vals = _mp_density_covariances(model, n)
        if vals is None:
            raise ValidationError(
                "extended-precision covariances are not available for this model; "
                "supported: white noise, power-at-origin, pure-MA, their products "
                "and scalings, arc-supported, flat-zero")
        _COV_CACHE.put(key, (n, list(vals), "exact"))
    for angle, mass in measure.atoms:
        wa = mp.mpf(mass)
        aa = mp.mpf(angle)
        vals = [v + wa * mp.cos(aa * k) for k, v in enumerate(vals)]
    hi = [float(v) for v in vals]
    lo = [float(v - h) for v, h in zip(vals, hi)]
    prov = "quadrature" if isinstance(model, FlatZero) else "exact"
    return CovarianceSequence(np.array(hi), prov, precision="dd", lo=np.array(lo))
