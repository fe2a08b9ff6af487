"""Covariance sequences r(0..n) from spectral measures.

A variant with a closed form computes it itself (`SpectralModel.covariances`),
written once over an arithmetic this module supplies: numpy float64 arrays
for precision="double", the double-double arrays of `ddouble` for
precision="dd".  The closed forms, the same in both precisions, cover models
that reduce to a power-at-origin factor times a finite trigonometric
polynomial (white noise, pure-MA ARMA, fractional factors of those, products,
scalings), fractional Gaussian noise, ARMA whose AR polynomial has every root
outside the unit disc, arc-supported indicators, scalings of these, and
shifts of any of them by 0 or pi; a flat-zero density is integrated by
Gauss-Legendre quadrature in double-double.  The first group rests on r_alpha
from one ratio recurrence in double-double, started from binom(2a, a) to
double-double accuracy; double sums the trigonometric polynomial's terms in
double-double arithmetic, double-double sums them exactly.  FGN sums its
second difference of k^2H as a series of one sign in the arithmetic asked
for; ARMA runs its difference equation in double-double at either precision.
Every other density (Fisher-Hartwig, ARFIMA or products over an AR part,
Pollaczek-Szego, an AR polynomial with a root in the unit disc) goes through
singularity-graded double quadrature, its moments by the nonuniform FFT of
`quadrature.cosine_moments`, with a refinement cross-check at absolute
tolerance 1e-12 per coefficient, and has no double-double form.  A density
that is not finite at a node, such as a pole graded below double resolution,
is refused before its moments are taken.

The double-double path produces covariances accurate to a few units of 1e-32,
required by the exponential-decay studies where Toeplitz variances reach the
square of double rounding error.  They are stored as two float arrays:
`values` holds each rounded to double (the hi part), and `lo` the remainder.
The double closed forms built on r_alpha and ARMA's keep their low parts too,
for the refinement step of the double Toeplitz solve; every other double
sequence has none.  A computed sequence that is not finite raises
`AccuracyError`.

The density's sequence is cached, read-only, for the 64 (model, precision,
order) triples asked last.  Models are frozen dataclasses and compare by
value, so an equal model built anew, say from its document, hits.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ddouble as dd
from . import quadrature
from .errors import AccuracyError, ValidationError
from .spectra import as_measure, check_alpha

#: absolute tolerance per quadrature coefficient
QUAD_TOL = 1e-12


def _falpha(alpha: float, kmax: int) -> dd.DD:
    """r_alpha(0..kmax) by the ratio recurrence r(k+1) = r(k) (k-a)/(k+a+1)
    from r(0) = binom(2a, a) by `dd.central_binomial`, in double-double.  k-a
    and k+1+a are exact double-double values, so at an integer a the factor
    k-a is an exact 0 and every later lag an exact +0.0."""
    check_alpha(alpha)
    r0 = dd.central_binomial(alpha)
    k = np.arange(kmax, dtype=float)
    ratios = dd.DD(*dd.two_sum(k, -alpha)) / dd.DD(*dd.two_sum(k + 1.0, alpha))
    return dd.DD(np.append(r0.hi, ratios.hi), np.append(r0.lo, ratios.lo)).cumprod()


def falpha_covariance_array(alpha: float, kmax: int) -> np.ndarray:
    """r_alpha(0..kmax) rounded once to double: r(0) is correctly rounded."""
    return np.asarray(_falpha(alpha, kmax))


def _falpha_sum(alpha: float, kmax: int, gamma) -> dd.DD:
    """gamma_0 r_a(k) + sum_{t>=1} gamma_t (r_a(k+t) + r_a(|k-t|)), k = 0..kmax,
    in double-double arithmetic on r_a: the double sequence is its hi part,
    and its lo part the low parts the refinement step reads."""
    ra = _falpha(alpha, kmax + len(gamma) - 1)
    k = np.arange(kmax + 1)
    out = ra[k] * gamma[0]
    for t in range(1, len(gamma)):
        out = out + (ra[k + t] + ra[np.abs(k - t)]) * gamma[t]
    return out


def _dd_falpha_sum(alpha: float, kmax: int, gamma) -> dd.DD:
    """The sum of `_falpha_sum` in double-double, to a few units of 1e-32
    relative even where its terms cancel: with m the least lag in the sum at k,
    r(k) = r_a(m) S(k), where S(k), the sum of gamma_t r_a(j) / r_a(m), is
    formed in exact rationals and rounded once."""
    if not np.all(np.isfinite(gamma)):
        raise AccuracyError("the trigonometric polynomial's coefficients are not finite")
    big = len(gamma) - 1
    ra = _falpha(alpha, kmax + big)
    if not big:
        return ra * gamma[0]
    from fractions import Fraction
    a = Fraction(alpha)
    ratios = [(i - a) / (i + 1 + a) for i in range(kmax + big)]
    least, sums = np.maximum(np.arange(kmax + 1) - big, 0), []
    for k, m in enumerate(least.tolist()):
        s = sum(Fraction(g) * math.prod(ratios[m:j]) for t, g in enumerate(gamma)
                for j in ((k + t, abs(k - t)) if t else (k,)))
        sums.append(dd.exact(s.numerator, s.denominator))
    return ra[least] * dd.DD(np.array([v.hi for v in sums]), np.array([v.lo for v in sums]))


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
    check_alpha(alpha)
    if k < 1:
        raise ValidationError("asymptote needs k >= 1")
    s = math.sin(math.pi * alpha)
    if alpha == 0.0 or (alpha > 0 and abs(alpha - round(alpha)) < 1e-15):
        return Asymptote(0.0, True)
    c_alpha = math.gamma(2.0 * alpha + 1.0) * (-s) / math.pi
    return Asymptote(c_alpha * float(k) ** (-2.0 * alpha - 1.0), False)


@dataclass(frozen=True)
class CovarianceSequence:
    """Values r(0..n) with provenance and precision metadata.  The arrays are
    read-only copies of those given."""

    values: np.ndarray
    provenance: str                       # "exact" | "quadrature"
    precision: str = "double"             # "double" | "dd"
    lo: np.ndarray | None = None          # low parts, r = values + lo, when known

    def __post_init__(self):
        for name in ("values", "lo"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, dd.read_only(np.array(value, dtype=float)))
        if self.precision == "dd" and self.lo is None:
            raise ValidationError("double-double covariances need their low parts")
        if self.lo is not None and self.lo.shape != self.values.shape:
            raise ValidationError("low parts must match the values in length")
        if not all(np.all(np.isfinite(v)) for v in (self.values, self.lo) if v is not None):
            raise ValidationError("covariances must be finite")
        if self.values[0] <= 0.0:
            raise ValidationError("r(0) must be positive (non-degenerate process)")
        if np.any(np.abs(self.values[1:]) > self.values[0] * (1.0 + 1e-10) + 1e-300):
            raise ValidationError("|r(k)| <= r(0) violated; not a covariance sequence")

    @property
    def order(self) -> int:
        return len(self.values) - 1


# -- quadrature path ---------------------------------------------------------

def _quadrature_density_covariances(model, kmax):
    # a power singularity numerically at -1 cannot be graded to tolerance in
    # double precision; detect that analytically instead of trusting two
    # identically-capped grids that would agree on the wrong answer
    for s in model.singularities():
        if (s.kind == "algebraic" and s.exponent is not None and s.exponent < 0.0
                and quadrature.depth_for_exponent(s.exponent) >= quadrature.MAX_SINGULAR_PANELS):
            residual = 2.0 ** (-quadrature.MAX_SINGULAR_PANELS * (1.0 + s.exponent))
            raise AccuracyError(
                f"covariance quadrature cannot reach {QUAD_TOL:g} for a power "
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
        values = model.values(lam)
        lost = np.flatnonzero(~np.isfinite(values))
        if lost.size:
            angle = min((abs(s.angle) for s in model.singularities()),
                        key=lambda a: abs(a - lam[lost[0]]), default=lam[lost[0]])
            raise AccuracyError(
                f"density is not finite at {lost.size} quadrature nodes graded onto "
                f"its singular angle {angle:.17g}", achieved=math.inf)
        cur = quadrature.cosine_moments(lam, w, values, kmax)
        if prev is not None:
            achieved = float(np.max(np.abs(cur - prev)))
            if achieved <= QUAD_TOL:
                return cur
        prev = cur
    raise AccuracyError(
        f"covariance quadrature did not converge to {QUAD_TOL:g} "
        f"(achieved {achieved:.3g})", achieved=achieved)


@lru_cache(maxsize=64)
def _density_covariances(model, precision: str, n: int):
    """(r(0..n) of the density, provenance), read-only, for the 64 models,
    precisions and orders asked last: models compare by value, and the
    quadrature grid depends on the order, so a prefix of a longer sequence is
    not the sequence asked for."""
    if model.zero_density():
        return dd.read_only(np.zeros(n + 1)), "exact"
    found = model.covariances(n, _arithmetic(precision))
    if found is None and precision == "dd":
        raise ValidationError(
            "extended-precision covariances need a closed form, the same set in both "
            "precisions: white noise, power-at-origin, pure-MA, their fractional "
            "factors, products and scalings, FGN, ARMA with every AR root outside the "
            "unit disc, arc-supported, scalings and shifts of these by 0 or pi, and "
            "flat-zero (by double-double quadrature)")
    dens, prov = found or (_quadrature_density_covariances(model, n), "quadrature")
    return dd.read_only(dens), prov


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
    dens, prov = _density_covariances(model, precision, n)
    k = ar.arange(n + 1)
    for angle, mass in measure.atoms:
        dens = dens + ar.cos(k * angle) * mass
    hi, lo = (dens.hi, dens.lo) if isinstance(dens, dd.DD) else (dens, None)
    if not all(np.all(np.isfinite(v)) for v in (hi, lo) if v is not None):
        raise AccuracyError(f"covariances of {model.variant} are not finite in double range")
    return CovarianceSequence(hi, prov, precision=precision, lo=lo)


# -- arithmetics -------------------------------------------------------------

def _dd_flat_zero(a: float, kmax: int) -> dd.DD:
    """r(0..kmax) of exp(-|lam|^-a) by composite 24-node Gauss-Legendre in
    double-double.

    The integrand is below 1e-45 for lam < (45 ln 10)^(-1/a), so integration
    starts there and ends at pi in double-double; panels of at most
    min(6/kmax, 0.05) resolve the fastest oscillation.
    """
    cut = (45.0 * math.log(10.0)) ** (-1.0 / a)
    h = min(6.0 / max(kmax, 1), 0.05)
    panels = math.ceil((math.pi - cut) / h)
    edges = dd.DD(np.linspace(cut, math.pi, panels + 1), np.zeros(panels + 1))
    edges[-1] = dd.PI
    x, w = quadrature.dd_gl_nodes(24)
    half = ((edges[1:] - edges[:-1]) * 0.5).reshape(-1, 1)
    lam = ((edges[1:] + edges[:-1]) * 0.5).reshape(-1, 1) + half * x
    weights = (half * w * dd.exp(-dd.exp(dd.log(lam) * -a))).reshape(-1)
    cos = dd.sincos(lam.reshape(-1))[1]
    block = max(1, _TABLE_SIZE // (kmax + 1))
    out = 0.0
    for j in range(0, len(cos), block):
        out = _cosine_sums(cos[j:j + block], weights[j:j + block], kmax) + out
    return out * 2.0


#: entries of one block of the flat-zero cosine table, which keeps each of
#: its arrays near 1 MB, and the lag step of its recurrence
_TABLE_SIZE, _LAG_STEP = 1 << 17, 8


def _cosine_sums(cos: dd.DD, g: dd.DD, kmax: int) -> dd.DD:
    """sum_j g_j cos(k lam_j), k = 0..kmax, from the cos lam_j.

    cos(k lam) = 2 cos(s lam) cos((k-s) lam) - cos((k-2s) lam) gives the lags
    with s = 1 below 2B and then s = B = _LAG_STEP, B rows at a time: a
    three-term recurrence of n steps amplifies errors at most n + 1 times.
    """
    step, rows = _LAG_STEP, min(2 * _LAG_STEP, kmax + 1)
    c = dd.empty((rows, len(cos)))
    c[0], c[1:2] = 1.0, cos
    twice = dd.DD(2.0 * cos.hi, 2.0 * cos.lo)
    for k in range(2, rows):
        c[k] = twice * c[k - 1] - c[k - 2]
    v = dd.empty((kmax + 1, len(cos)))
    v[:rows] = c * g
    if rows > step:
        twice = dd.DD(2.0 * c.hi[step], 2.0 * c.lo[step])
    for k in range(rows, kmax + 1, step):
        top = min(k + step, kmax + 1)
        v[k:top] = twice * v[k - step:top - step] - v[k - 2 * step:top - 2 * step]
    # the rows' sums: hi parts by an error-free pairwise tree, the rest in double
    hi, lo = v.hi, v.lo.sum(axis=1)
    while hi.shape[1] > 1:
        if hi.shape[1] % 2:
            hi = np.pad(hi, ((0, 0), (0, 1)))
        hi, err = dd.two_sum(hi[:, 0::2], hi[:, 1::2])
        lo = lo + err.sum(axis=1)
    return dd.DD(*dd.two_sum(hi[:, 0], lo))


#: what the closed forms need of an arithmetic beyond
#: + - * /, which both take with a double on either side: whether it is the
#: extended one, arrays by `empty`, integer lags by `arange`, `dot`, pi,
#: elementwise sin, cos, exp, expm1 and log, gamma of a double, the sum of
#: `_falpha_sum` by `falpha`, `flat_zero`, r(0..kmax) of exp(-|lam|^-a) by
#: quadrature where the arithmetic has one, and `exact`, the double-double
#: record for the double one (None in itself), in which a recurrence runs at
#: either precision so that the double sequence is rounded once
Arithmetic = namedtuple(
    "Arithmetic", "extended empty arange dot pi sin cos exp expm1 log gamma falpha flat_zero exact")

_DD = Arithmetic(True, dd.empty, dd.arange, dd.dot, dd.PI, lambda x: dd.sincos(x)[0],
                 lambda x: dd.sincos(x)[1], dd.exp, dd.expm1, dd.log,
                 dd.gamma, _dd_falpha_sum, _dd_flat_zero, None)
_DOUBLE = Arithmetic(False, np.empty, np.arange, np.dot, math.pi, np.sin, np.cos, np.exp,
                     np.expm1, np.log, math.gamma, _falpha_sum, None, _DD)


def _arithmetic(precision: str) -> Arithmetic:
    """numpy float64 arrays, or the double-double arrays of `ddouble`."""
    if precision not in ("double", "dd"):
        raise ValidationError(f"unknown precision {precision!r}")
    return _DD if precision == "dd" else _DOUBLE


