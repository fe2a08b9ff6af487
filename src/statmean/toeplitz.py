"""Symmetric Toeplitz systems for optimal mean-estimation weights.

The core routine is a Levinson-Durbin recursion that only recurses: per order
one reflection dot, over the lags up to the last nonzero covariance, then the
updates of the monic predictor a and the prediction error.  The rest is read
off its outputs after the loop (Simon, OPUC, 2005, ch. 1-2).  P_j(1) =
prod_{i<=j} (1 + k_i) is the monic orthogonal polynomial at 1, the variance at
order m is 1 / sum_{j<=m} P_j(1)^2 / e_j, the Christoffel sum at 1, and the
solution of R x = 1 is x = (P_n(1) / e_n) cumsum(a_j - a_{n+1-j}), a_{n+1} =
0, the coefficients of the Christoffel-Darboux kernel K_n(z, 1) = P_n(1)
(P*_n(z) - z P_n(z)) / (e_n (1 - z)).  The pass is the library's only Levinson
recursion, written once over the arithmetic of its input, numpy float64 or
`ddouble` pairs; `opuc` reads its reflections and errors as negated Verblunsky
coefficients and monic norms.  An `lru_cache` keyed on a sequence's bytes (and
its low parts' in double-double) holds the 8 passes used last for every
caller.  Cached arrays are read-only and callers receive copies; a breakdown
is raised, never cached.

In double precision x is polished by one step of iterative refinement, cached
beside the pass: the residual 1 - (R + L) x, L the Toeplitz matrix of the
closed forms' low parts, is formed in double from `ddouble.grid_split` parts,
and R^-1 is applied to it by the Gohberg-Semencul formula from a.  The
double-double pass is not refined.  The quadratic form takes short-band lag
sums from the same split, and the autocorrelation of long weight vectors by
numpy's FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ddouble as dd
from .covariance import CovarianceSequence, covariance_sequence
from .errors import NearSingularError, ValidationError
from .quadrature import cosine_moments, model_grid
from .spectra import TWO_PI, as_measure

#: reflection magnitude beyond which the double recursion is declared singular
BREAKDOWN_DOUBLE = 1.0 - 1e-14

#: scaling applied to Fourier coefficients of 1/f in the inverse-density
#: approximation.  Pinned by exactness on constant densities: with entries
#: a(t) = CALIBRATION * integral e^{i t lam} / f(lam) dlam the quadratic form
#: of all-ones reproduces 1/variance exactly for f == const.
INVERSE_DENSITY_CALIBRATION = 1.0 / (TWO_PI * TWO_PI)

#: unit-sum tolerance enforced on constructing `EstimatorWeights`
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ToeplitzSystem:
    """Covariance Toeplitz matrix of order n+1 (entries r(|j-k|))."""

    covariance: CovarianceSequence
    precision: str = "double"

    @property
    def order(self) -> int:
        return self.covariance.order


def system_for(measure, n: int, precision: str = "double") -> ToeplitzSystem:
    cov = covariance_sequence(measure, n, precision=precision)
    return ToeplitzSystem(cov, precision=precision)


@dataclass(frozen=True)
class EstimatorWeights:
    """Coefficient vector c_0..c_n of an unbiased estimator, a read-only copy
    of the one given."""

    coefficients: np.ndarray

    def __post_init__(self):
        coefficients = dd.read_only(np.array(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coefficients)
        if self.coefficients.ndim != 1 or len(self.coefficients) < 1:
            raise ValidationError("weights must be a nonempty vector")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValidationError("weights must be finite")
        total = self.coefficients.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1 (got {total!r})")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


# ---------------------------------------------------------------------------
# the Levinson kernel, in double or double-double arithmetic
# ---------------------------------------------------------------------------

def _levinson(r):
    """One Levinson-Durbin pass solving R x = 1, R the Toeplitz matrix of r.

    r is a float array, run in numpy, or a `dd.DD` array, run in
    double-double.  Returns (x, reflections, prediction errors e_0..e_n,
    variance curve, final predictor a) in the same arithmetic, with R a = e_n
    (1, 0, ..., 0); x and the curve are formed after the loop.  A breakdown
    raises `NearSingularError` with the reflections so far, the offending one
    last, and the curve below its order.  The double-double pass also stops on
    pivot and variance loss; its reflection bound, compared with the
    reflection rounded to double, is 1.0.
    """
    ar = dd if isinstance(r, dd.DD) else np
    extended, empty, dot = ar is dd, ar.empty, ar.dot

    def breakdown(what, m, reflections=None):
        note = (" in double-double precision" if extended
                else "; extended double-double precision may reach further")
        curve = _at_one(refl[:m - 1], errors[:m])[1] if m else ()
        return NearSingularError(f"{what}{note}", order=m, extended=extended,
                                 reflections=reflections, curve=np.array(curve, dtype=float))

    bound = 1.0 if extended else BREAKDOWN_DOUBLE
    n = len(r) - 1
    band = _band(r)                                 # dots skip the exact-zero lags past it
    a, refl, errors = empty(n + 1), empty(n), empty(n + 1)
    a[:], a[0] = 0.0, 1.0                           # a stays 0 past order m
    e = errors[0] = r[0]
    for m in range(1, n + 1):
        w = min(m, band)
        k = -dot(a[m - w:m], r[w:0:-1]) / e
        if abs(float(k)) >= bound:
            raise breakdown(f"Toeplitz factorization breakdown at order {m} "
                            f"(reflection {float(k):+.17g})", m, np.append(refl[:m - 1], k))
        refl[m - 1] = k
        a[:m + 1] += k * a[m::-1]
        e *= 1.0 - k * k
        if extended and float(e) <= 0.0:
            raise breakdown(f"pivot loss at order {m}", m)
        errors[m] = e
    p, curve = _at_one(refl, errors)
    lost = np.flatnonzero(~(np.asarray(curve) > 0.0))
    if extended and lost.size:
        raise breakdown(f"variance loss at order {lost[0]}", int(lost[0]))
    d = a.copy()                                    # d_j = a_j - a_{n+1-j}, a_{n+1} = 0
    d[1:] -= a[:0:-1]
    with np.errstate(all="ignore"):                 # out of range: left to the callers' checks
        return (p[-1] / e) * d.cumsum(), refl, errors, curve, a


def _at_one(refl, errors):
    """P_j(1) and the curve for j <= m from k_1..k_m and e_0..e_m, the same for
    any m >= j; a value out of double range is left for the caller to refuse."""
    p = errors.copy()
    p[0], p[1:] = 1.0, 1.0 + refl
    with np.errstate(all="ignore"):
        p = p.cumprod()
        return p, 1.0 / (p * (p / errors)).cumsum()


def _band(r) -> int:
    """The last lag of a nonzero covariance, 0 if none: past it r is exactly 0."""
    lags = np.flatnonzero(np.asarray(r))
    return int(lags[-1]) if lags.size else 0


class _LevinsonPass(NamedTuple):
    """Read-only results of one all-ones pass, in the arithmetic it ran in:
    float arrays, or `dd.DD` pairs of them."""

    x: np.ndarray
    refl: np.ndarray
    errors: np.ndarray
    curve: np.ndarray
    a: np.ndarray


def _floats(b):
    return None if b is None else np.frombuffer(b)


@lru_cache(maxsize=8)
def _pass(r_bytes, lo_bytes):
    """The pass over the exact values r, in double-double when their low parts
    lo are given, for the 8 sequences asked last; an entry holds five vectors
    of length n+1, each two arrays in double-double.  A breakdown raises
    every time."""
    r, lo = _floats(r_bytes), _floats(lo_bytes)
    found = _levinson(r if lo is None else dd.DD(r, lo))
    return _LevinsonPass(*map(dd.read_only, found))


@lru_cache(maxsize=8)
def _refined(r_bytes, lo_bytes):
    """x + R^-1 (1 - (R + L) x), one refinement step of the double pass's x
    against r + lo, for the 8 sequences asked last.  An x out of double range
    (1 / r(0) overflows at a subnormal scale) is refused, not refined."""
    p, r = _pass(r_bytes, None), _floats(r_bytes)
    if not np.isfinite(p.x).all():
        raise NearSingularError(f"solution out of double range at order {len(r) - 1}",
                                order=len(r) - 1)
    correction = _gohberg_semencul(p.a, p.errors[-1], _residual(r, p.x, _floats(lo_bytes)))
    return dd.read_only(p.x + correction)


def _bytes(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def levinson_pass(r, lo=None) -> _LevinsonPass:
    """The memoised pass over the exact values r, in double-double when their
    low parts lo are given."""
    return _pass(_bytes(r), _bytes(lo))


def solve_ones(r, lo=None) -> np.ndarray:
    """x solving R x = 1 in double: the memoised pass's x after one refinement
    step against r + lo, read-only."""
    return _refined(_bytes(r), _bytes(lo))


def _pass_for(covariance: CovarianceSequence, precision: str) -> _LevinsonPass:
    if precision not in ("double", "dd"):
        raise ValidationError(f"unknown precision {precision!r}")
    if precision == "double":
        return levinson_pass(covariance.values)
    if covariance.precision != "dd":
        raise ValidationError("extended precision requires a dd covariance sequence")
    return levinson_pass(covariance.values, covariance.lo)


def _correlate(r, x):
    """(R x)_i = sum_j r(|i-j|) x_j, x correlated with r(n..1, 0..n) 1024
    columns at a time: each dot's two 8 KB operands stay in a 48 KB L1 cache,
    where one call over all 4097 columns at n = 4096 ran at half the speed."""
    s, m = np.concatenate((r[:0:-1], r)), len(x)
    return np.add.reduce([np.correlate(s[j:j + m + 1023], x[j:j + 1024], "valid")
                          for j in range(0, m, 1024)])[::-1]


def _residual(r, x, lo=None):
    """1 - (R + L) x, R and L the Toeplitz matrices of r and of its low parts,
    to 2^-64 of sum_j |r(i-j) x_j| in row i.  With r and x split by
    `dd.grid_split`, R1 x1 is exact; the rest, R x2 + (R2 + L) x1, is some
    2^-20 of R x and is formed in double, and L x2 is below its rounding."""
    r1, r2 = dd.grid_split(r, len(r))
    x1, x2 = dd.grid_split(x, len(r))
    if lo is not None:
        r2 = r2 + lo
    return (1.0 - _correlate(r1, x1)) - _correlate(r, x2) - _correlate(r2, x1)


def _gohberg_semencul(a, e, b):
    """R^-1 b from the final predictor a and prediction error e of R's pass.

    R^-1 = (L(a) L(a)^T - L(s) L(s)^T) / e, s = (0, a_n, ..., a_1), L(v) the
    lower-triangular Toeplitz matrix of first column v (Gohberg & Semencul
    1972).  Products are convolutions by FFT; L(v)^T b is L(v) on b reversed,
    reversed."""
    m = len(b)
    size = _fast_length(2 * m - 1)
    fa, fs = np.fft.rfft(a, size), np.fft.rfft(np.append(0.0, a[:0:-1]), size)
    fb = np.fft.rfft(b[::-1], size)
    u, v = (np.fft.irfft(f * fb, size)[m - 1::-1] for f in (fa, fs))
    return np.fft.irfft(fa * np.fft.rfft(u, size) - fs * np.fft.rfft(v, size), size)[:m] / e


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def blue_solve(system: ToeplitzSystem):
    """Optimal unbiased weights and their variance for the covariance system.

    Weights are (1^T R^-1 1)^-1 1^T R^-1 with the unit-sum constraint enforced
    by a final renormalization; the variance is (1^T R^-1 1)^-1.
    """
    cov = system.covariance
    if system.precision == "double":
        x = solve_ones(cov.values, cov.lo)
    else:
        x = _pass_for(cov, system.precision).x
    total = x.sum()
    variance = float(1.0 / total)
    coeffs = np.asarray(x / total, dtype=float)
    coeffs = coeffs / coeffs.sum()
    if variance <= 0.0:
        raise NearSingularError("non-positive variance from factorization",
                                order=system.order)
    return EstimatorWeights(coeffs), variance


def blue_variance_curve(covariance: CovarianceSequence, precision: str = "double"):
    """Variance of the optimal estimator at every order 0..n in one pass.  A
    double curve that reads 0 at order m (r(0) at a subnormal scale) is
    refused, with the orders below m on the error."""
    curve = np.array(_pass_for(covariance, precision).curve, dtype=float)
    lost = np.flatnonzero(~(curve > 0.0))
    if precision == "double" and lost.size:
        m = int(lost[0])
        raise NearSingularError(f"variance out of double range at order {m}", order=m,
                                curve=curve[:m])
    return curve


def reflection_coefficients(r):
    """Reflection (Schur) coefficients of the prediction recursion."""
    return levinson_pass(r).refl.copy()


def quadratic_form(weights, covariance: CovarianceSequence) -> float:
    """sum_{j,k} c_j c_k r(|j-k|) via O(n) lag aggregation.

    Trailing exact zeros of the covariance are trimmed first, so short-range
    sequences (integer-exponent models) cost O(n * lags).
    """
    c = np.asarray(getattr(weights, "coefficients", weights), dtype=float)
    r = covariance.values
    if len(c) > len(r):
        raise ValidationError("weight length exceeds covariance order + 1")
    lags = min(_band(r) + 1, len(c))
    if lags <= 8:
        # lag sums of split weights, c1 . c1 exact, combined in double-double:
        # closed-form identities hold at n ~ 4096
        m = len(c)
        c1, c2 = dd.grid_split(c, m)
        hi, lo = np.array([(np.dot(c1[:m - t], c1[t:]),
                            np.dot(c[:m - t], c2[t:]) + np.dot(c2[:m - t], c1[t:]))
                           for t in range(lags)]).T
        scale = np.where(np.arange(lags) > 0, 2.0, 1.0) * r[:lags]
        return float(dd.dot(dd.DD(scale, np.zeros(lags)), dd.DD(hi, lo)))
    # the full autocorrelation, as the convolution of c with c reversed
    size = _fast_length(2 * len(c) - 1)
    auto = np.fft.irfft(np.fft.rfft(c, size) * np.fft.rfft(c[::-1], size), size)
    mid = len(c) - 1
    acorr = auto[mid:mid + lags]
    acorr[0] = float(np.dot(c, c))
    return float(r[0] * acorr[0] + 2.0 * np.dot(r[1:lags], acorr[1:]))


def _fast_length(m: int) -> int:
    """The least 2^i 3^j 5^k >= m: a length numpy's FFT transforms fast."""
    best, five = 1 << (m - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            size = odd
            while size < m:
                size <<= 1
            best, odd = min(best, size), odd * 3
        five *= 5
    return best


def _inverse_integrable(model) -> bool:
    """1/f integrable: f is not zero, and every singularity is an algebraic
    one of exponent < 1, so no zero of order >= 1 and no vanishing on arcs."""
    return not model.zero_density() and all(
        s.kind == "algebraic" and s.exponent < 1.0 for s in model.singularities())


def inverse_density_approx_variance(measure, n: int) -> float:
    """Variance approximation replacing R^-1 by the Toeplitz matrix of 1/f.

    The matrix entries are the Fourier coefficients of 1/f scaled by
    INVERSE_DENSITY_CALIBRATION, which makes the approximation exact for
    constant densities; for densities continuous and positive at the origin it
    approaches 2*pi*f(0)/n.
    """
    measure = as_measure(measure)
    model = measure.density
    if measure.atoms:
        raise ValidationError("inverse-density approximation is defined for densities only")
    if not _inverse_integrable(model):
        raise ValidationError("1/f is not integrable; inverse-density approximation undefined")
    N = n + 1
    lam, w = model_grid(model, osc_k=n)
    inv_vals = 1.0 / model.values(lam)
    a = INVERSE_DENSITY_CALIBRATION * cosine_moments(lam, w, inv_vals, n)
    t = np.arange(1, N)
    form = N * a[0] + 2.0 * np.dot(N - t, a[1:])
    if form <= 0.0:
        raise ValidationError("inverse-density quadratic form is not positive")
    return 1.0 / float(form)
