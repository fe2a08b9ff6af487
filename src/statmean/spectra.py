"""Spectral density models and spectral measures.

A model evaluates the spectral density f(lambda) on [-pi, pi] and declares
its singular angles.  The three facts the paper's variance law turns on, the
local power of f at 0, the divergence of the Szego log-integral and a support
edge (f vanishing on an arc), are read off those declarations alone, so
quadrature grids are graded toward the same angles and classification never
compares a float against a huge negative number.

A variant with closed-form covariances computes them in `covariances`,
written once over an arithmetic `ar`, the module `numpy` or `ddouble`; `ar is
dd` asks for the extended one.  The sums over the power law's `falpha` live
here with the variants that use them.

Conventions
-----------
* Covariances are plain Fourier coefficients of the measure,
  r(k) = integral of exp(i*k*lambda) d(mu), with no 1/(2*pi) factor, so the
  white-noise density 1/(2*pi) has r(0) = 1.
* An atom entry (angle, mass) with angle == 0 places the full mass at 0; an
  entry with angle != 0 denotes the symmetric pair +/-angle carrying mass/2
  each, so the atom contributes mass*cos(k*angle) to r(k) and the measure
  stays real and even.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import ddouble as dd
from .errors import AccuracyError, ValidationError
from .quadrature import dd_cosine_moments, dd_gl_nodes, log_integral_grid

TWO_PI = 2.0 * math.pi

#: lags per step of `Arma.covariances`' difference equation
_AR_BLOCK = 64

#: An angle in radians.  In a model document it may also be a multiple of pi
#: written with a "pi" suffix (see `parse_angle`).
Angle = float


class MinusInfinityType:
    """Distinct symbol for a divergent Szego integral (never a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MinusInfinity"

    def __bool__(self):
        return False


MINUS_INFINITY = MinusInfinityType()


@dataclass(frozen=True)
class Singularity:
    """A declared trouble spot of a density on [-pi, pi].

    kind is one of:
      * "algebraic": f ~ c*|lambda-angle|**exponent near the angle,
      * "essential": f vanishes faster than any power (flat zero), with
        ln f ~ -c*|lambda-angle|**(-rate),
      * "edge": a support edge, where f vanishes on one side; an exponent,
        when given, is f's power on the other.
    """

    angle: float
    kind: str
    exponent: float | None = None
    rate: float | None = None


def _reduce_angle(lam):
    """Reduce angles mod 2*pi into [-pi, pi]; one already there stays as it is."""
    return np.where(np.abs(lam) <= np.pi, lam, np.mod(lam + np.pi, TWO_PI) - np.pi)


def _check_angle_range(angle):
    a = np.asarray(angle, dtype=float)
    if not np.all((a >= -np.pi - 1e-12) & (a <= np.pi + 1e-12)):
        raise ValidationError("angle must lie in [-pi, pi]")


def check_alpha(alpha: float):
    """Refuse a power-law exponent alpha unless it is finite with alpha > -1/2,
    where |1 - e^{i lam}|^{2 alpha} is integrable."""
    if not -0.5 < alpha < math.inf:
        raise ValidationError("alpha must be finite with alpha > -1/2")


def falpha(alpha: float, kmax: int) -> dd.DD:
    """r_alpha(0..kmax) by the ratio recurrence r(k+1) = r(k) (k-a)/(k+a+1)
    from r(0) = binom(2a, a) by `dd.central_binomial`, in double-double.  k-a
    and k+1+a are exact double-double values, so at an integer a the factor
    k-a is an exact 0 and every later lag an exact +0.0."""
    check_alpha(alpha)
    r0 = dd.central_binomial(alpha)
    k = np.arange(kmax, dtype=float)
    ratios = dd.DD(*dd.two_sum(k, -alpha)) / dd.DD(*dd.two_sum(k + 1.0, alpha))
    return dd.DD(np.append(r0.hi, ratios.hi), np.append(r0.lo, ratios.lo)).cumprod()


def _falpha_sum(alpha: float, kmax: int, gamma) -> dd.DD:
    """gamma_0 r_a(k) + sum_{t>=1} gamma_t (r_a(k+t) + r_a(|k-t|)), k = 0..kmax,
    in double-double arithmetic on r_a: the double sequence is its hi part,
    and its lo part the low parts the refinement step reads."""
    ra = falpha(alpha, kmax + len(gamma) - 1)
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
    ra = falpha(alpha, kmax + big)
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


#: model classes by their `variant`, the discriminator of a model document
_VARIANTS: dict[str, type] = {}


@dataclass(frozen=True)
class SpectralModel:
    """Base class.  A variant declares its dataclass fields, `values`
    (vectorized; `log_values` too where the direct form avoids under/overflow)
    and, unless the merge of its children's will do, `singularities()`.
    `children`, `origin_exponent` and `szego_diverges` are derived here from
    those.  The fields are also the model document: `to_json` writes them
    under the class's `variant` name and `model_from_json` reads them back.
    """

    variant = None

    def __init_subclass__(cls, variant=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if variant is not None:
            cls.variant = variant
            _VARIANTS[variant] = cls

    def values(self, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_values(self, lam: np.ndarray) -> np.ndarray:
        """log f(lambda); overridden where the direct form avoids under/overflow."""
        with np.errstate(divide="ignore"):
            return np.log(self.values(lam))

    def singularities(self) -> tuple[Singularity, ...]:
        return _merge_singularities(tuple(s for c in self.children() for s in c.singularities()))

    def origin_exponent(self) -> float | None:
        """Local power e of f ~ c*|lambda|**e at 0, None when there is none:
        for a zero density or one with a support edge, and at an essential
        zero.  An algebraic singularity at 0 gives its exponent; else e = 0
        where f(0) is positive and finite."""
        sings = self.singularities()
        if self.zero_density() or any(s.kind == "edge" for s in sings):
            return None
        at_zero = next((s for s in sings if abs(s.angle) < 1e-12), None)
        if at_zero is not None:
            return at_zero.exponent if at_zero.kind == "algebraic" else None
        with np.errstate(all="ignore"):      # f(0) out of double range has no power
            f0 = float(self.values(np.zeros(1))[0])
        return 0.0 if 0.0 < f0 < math.inf else None

    def children(self) -> tuple[SpectralModel, ...]:
        """The models this one is built from: its model-valued fields, in order."""
        return tuple(v for v in (getattr(self, f.name) for f in fields(self))
                     if isinstance(v, SpectralModel))

    def szego_diverges(self) -> bool:
        """True when the log-integral is -infinity: f is zero, vanishes past a
        support edge, or has an essential zero of rate >= 1."""
        return self.zero_density() or any(
            s.kind == "edge" or (s.kind == "essential" and s.rate >= 1.0)
            for s in self.singularities())

    def zero_density(self) -> bool:
        """True when the density is identically zero."""
        return any(c.zero_density() for c in self.children())

    def is_even(self) -> bool:
        """True when f(-lam) == f(lam) holds structurally; only a frequency
        shift off 0 and +/-pi breaks it (complex covariances)."""
        return all(c.is_even() for c in self.children())

    def falpha_reduction(self, ar):
        """(alpha, C, gamma) with f = C * f_alpha * g, where g = sum_t gamma_|t|
        e^{i t lam} is a nonnegative trigonometric polynomial and C a double or
        a number of the arithmetic `ar`; None if f has no such form."""
        return None

    def covariances(self, kmax: int, ar):
        """(r(0..kmax), provenance) in the arithmetic `ar`, the module `numpy`
        or `ddouble`, or None without a closed form.  Parameters enter as
        doubles, on either side of the arithmetic's numbers.

        The default evaluates the reduction: r(k) = C * [gamma_0 r_a(k) +
        sum_{t>=1} gamma_t (r_a(k+t) + r_a(k-t))], the bracket in double-double
        arithmetic on r_a in double (`_falpha_sum`), to a few units of 1e-32
        in double-double (`_dd_falpha_sum`).
        """
        red = self.falpha_reduction(ar)
        if red is None:
            return None
        alpha, c, gamma = red
        return (_dd_falpha_sum if ar is dd else _falpha_sum)(alpha, kmax, gamma) * c, "exact"

    def to_json(self) -> dict:
        return {"variant": self.variant, **_fields_json(self)}


@dataclass(frozen=True)
class WhiteNoise(SpectralModel, variant="white_noise"):
    level: float = 1.0 / TWO_PI

    def __post_init__(self):
        if not (self.level >= 0.0 and math.isfinite(self.level)):
            raise ValidationError("white-noise level must be a finite nonnegative real")

    def values(self, lam):
        return np.full_like(np.asarray(lam, dtype=float), self.level)

    def log_values(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.level == 0.0:
            return np.full_like(lam, -np.inf)
        return np.full_like(lam, math.log(self.level))

    def zero_density(self):
        return self.level == 0.0

    def falpha_reduction(self, ar):
        return 0.0, 2 * ar.pi * self.level, np.array([1.0])


@dataclass(frozen=True)
class Arma(SpectralModel, variant="arma"):
    """Rational density scale/(2*pi) * |theta(e^{i*lam})|^2 / |psi(e^{i*lam})|^2.

    `ma` and `ar` are the full polynomial coefficient sequences (constant term
    first).  AR roots on the unit circle are rejected; MA roots on the circle
    are allowed and produce antipersistent models.
    """

    ma: tuple[float, ...] = (1.0,)
    ar: tuple[float, ...] = (1.0,)
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ma", tuple(float(c) for c in self.ma))
        object.__setattr__(self, "ar", tuple(float(c) for c in self.ar))
        if not all(map(math.isfinite, self.ma + self.ar)):
            raise ValidationError("ARMA coefficients must be finite")
        if not self.ma or not any(self.ma):
            raise ValidationError("MA polynomial must be nonzero")
        if not self.ar or self.ar[0] == 0.0:
            raise ValidationError("AR polynomial needs a nonzero constant term")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be a positive real")
        if len(self.ar) > 1:
            roots = np.roots(self.ar[::-1])
            if np.any(np.abs(np.abs(roots) - 1.0) < 1e-8):
                raise ValidationError("AR polynomial must have no roots on the unit circle")

    def values(self, lam):
        z = np.exp(1j * np.asarray(lam, dtype=float))
        num = np.abs(np.polynomial.polynomial.polyval(z, self.ma)) ** 2
        den = np.abs(np.polynomial.polynomial.polyval(z, self.ar)) ** 2
        return self.scale / TWO_PI * num / den

    def singularities(self):
        # np.roots spreads a root of multiplicity m about eps^(1/m) around it,
        # 2.2e-4 at m = 4.  Roots within 1e-3 of each other whose mean lies on
        # the circle are one root there, a zero of f of order 2 m; the roots of
        # a cluster off the circle are tested one by one
        clusters, roots = {}, []        # clusters by their first root
        for root in np.roots(self.ma[::-1]) if len(self.ma) > 1 else ():
            first = next((c for c in clusters if abs(c - root) < 1e-3), root)
            clusters.setdefault(first, []).append(root)
        for c in clusters.values():
            mean = np.mean(c)
            roots += [(mean, len(c))] if abs(abs(mean) - 1.0) < 1e-10 else [(z, 1) for z in c]
        return tuple(Singularity(float(np.angle(z)), "algebraic", 2.0 * m)
                     for z, m in roots if abs(abs(z) - 1.0) < 1e-10)

    def falpha_reduction(self, ar):
        if len(self.ar) > 1:
            return None
        theta = np.asarray(self.ma)
        return 0.0, self.scale, np.correlate(theta, theta, mode="full")[len(theta) - 1:]

    def covariances(self, kmax, ar):
        """Pure MA by the reduction.  With an AR part (Brockwell & Davis 1991,
        section 3.3): the AR polynomial is stepped down to reflection
        coefficients k_m, Levinson runs back up from the innovation variance
        scale / ar0^2 to gamma(0..p) of the AR part, the difference equation
        gamma(k) = -sum_j phi_j gamma(k-j) continues it, and the MA
        autocorrelation g_t enters as in `_falpha_sum`: g_0 gamma(k) +
        sum_t g_t (gamma(k+t) + gamma(|k-t|)).  All of it runs in double-double
        at either precision.  None when some |k_m| >= 1: a root in the unit
        disc, no causal solution."""
        if len(self.ar) == 1:
            return super().covariances(kmax, ar)
        p, q = len(self.ar) - 1, len(self.ma) - 1
        psi, theta = dd.empty(p + 1), dd.empty(q + 1)
        psi[:], theta[:] = self.ar, self.ma
        polys, refl, e = [psi / psi[0]], [], self.scale / (psi[0] * psi[0])
        for m in range(p, 0, -1):
            a, k = polys[-1], polys[-1][m]
            if not abs(float(k)) < 1.0:
                return None
            refl.append(k)
            e = e / (1.0 - k * k)
            polys.append((a[:m] - a[m:0:-1] * k) / (1.0 - k * k))
        size = max(kmax + q, p) + 1
        gam = dd.empty(size + _AR_BLOCK)
        gam[0] = e
        for m in range(1, p + 1):
            k = refl[p - m]
            gam[m] = -(k * e) - dd.dot(polys[p - m + 1][1:m], gam[m - 1:0:-1])
            e = e * (1.0 - k * k)
        # the difference equation _AR_BLOCK lags at a time: row t of `step`
        # holds the weights of gamma(k0-1-j), j < p, in gamma(k0-p+t)
        phi, step = polys[0], dd.empty((_AR_BLOCK + p, p))
        step[:p] = np.eye(p)[::-1]
        for t in range(p, _AR_BLOCK + p):
            row = -(step[t - 1] * phi[1])
            for j in range(2, p + 1):
                row = row - step[t - j] * phi[j]
            step[t] = row
        for k0 in range(p + 1, size, _AR_BLOCK):
            block = step[p:, 0] * gam[k0 - 1]
            for j in range(1, p):
                block = block + step[p:, j] * gam[k0 - 1 - j]
            gam[k0:k0 + _AR_BLOCK] = block
        k = np.arange(kmax + 1)
        out = gam[k] * dd.dot(theta, theta)
        for t in range(1, q + 1):
            out = out + (gam[k + t] + gam[np.abs(k - t)]) * dd.dot(theta[:q + 1 - t], theta[t:])
        return out, "exact"


@dataclass(frozen=True)
class PowerAtOrigin(SpectralModel, variant="power_at_origin"):
    """f(lambda) = (2*pi)^{-1} |1 - e^{i*lambda}|^{2*alpha}, alpha > -1/2."""

    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        base = 2.0 * np.abs(np.sin(lam / 2.0))
        with np.errstate(divide="ignore"):
            return base ** (2.0 * self.alpha) / TWO_PI

    def log_values(self, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            return 2.0 * self.alpha * np.log(2.0 * np.abs(np.sin(lam / 2.0))) - math.log(TWO_PI)

    def singularities(self):
        if self.alpha == 0.0:
            return ()
        return (Singularity(0.0, "algebraic", 2.0 * self.alpha),)

    def falpha_reduction(self, ar):
        return self.alpha, 1.0, np.array([1.0])


@dataclass(frozen=True)
class ArfimaFactor(SpectralModel, variant="arfima"):
    """Multiplies a base density by |1 - e^{-i*lambda}|^{-2d}, d < 1/2."""

    d: float
    base: SpectralModel

    def __post_init__(self):
        if not (self.d < 0.5 and math.isfinite(self.d)):
            raise ValidationError("fractional-integration order must satisfy d < 1/2")

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        base = 2.0 * np.abs(np.sin(lam / 2.0))
        with np.errstate(divide="ignore"):
            return self.base.values(lam) * base ** (-2.0 * self.d)

    def log_values(self, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            return self.base.log_values(lam) - 2.0 * self.d * np.log(2.0 * np.abs(np.sin(lam / 2.0)))

    def singularities(self):
        mine = (Singularity(0.0, "algebraic", -2.0 * self.d),) if self.d != 0.0 else ()
        return _merge_singularities(mine + self.base.singularities())

    def falpha_reduction(self, ar):
        base = self.base.falpha_reduction(ar)
        if base is None or not base[0] - self.d > -0.5:
            return None
        return base[0] - self.d, base[1], base[2]


#: terms of `_hurwitz_zeta` summed one by one, and Bernoulli terms in its tail
_ZETA_TERMS, _ZETA_BERNOULLI = 12, 8


def _hurwitz_zeta(s: float, a):
    """zeta(s, a) = sum_{k>=0} (a + k)^-s for s > 1 and a >= 1/2, to double
    rounding: 12 terms, then the Euler-Maclaurin tail at w = a + 12,
    w^(1-s) / (s-1) + w^-s / 2 + sum_{j=1..8} B_2j / (2j)! s (s+1) ... (s+2j-2)
    w^(1-s-2j), whose j-th term is about (2j)! / (2 pi w)^2j of the sum
    (Johansson, Numer. Algorithms 2015)."""
    coeffs, rising = [], s
    for j, b in enumerate(dd.bernoulli()[:_ZETA_BERNOULLI], 1):
        coeffs.append(float(b / math.factorial(2 * j)) * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    w = a + _ZETA_TERMS
    u, poly = 1.0 / (w * w), 0.0
    for c in reversed(coeffs):
        poly = poly * u + c
    out = w ** -s * (w / (s - 1.0) + 0.5 + poly / w)
    # smallest terms first
    for k in range(_ZETA_TERMS - 1, -1, -1):
        out = out + (a + k) ** -s
    return out


@dataclass(frozen=True)
class FgnDensity(SpectralModel, variant="fgn"):
    """Fractional Gaussian noise density with Hurst index in (0, 1).

    f(lambda) = scale * |1-e^{-i*lambda}|^2 * sum_k |lambda + 2*pi*k|^{-(2H+1)}
    (Beran 1994, section 2.3).  In `values` the k = 0 term is
    |lambda|^{1-2H} sinc^2(lambda / 2 pi), and the others are
    (2 pi)^-s (zeta(s, 1 + x) + zeta(s, 1 - x)) with s = 2H + 1 and
    x = lambda / 2 pi, each Hurwitz zeta to double rounding; the covariances
    take their closed form.
    """

    hurst: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValidationError("Hurst index must lie in (0, 1)")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be a positive real")

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        s, x = 2.0 * self.hurst + 1.0, lam / TWO_PI
        # the k = 0 term is folded with sin^2 analytically, so no node forms
        # 0 * inf; at 0 it is 0^(1-2H), which is inf, 0 or 1
        with np.errstate(divide="ignore"):
            central = np.abs(lam) ** (1.0 - 2.0 * self.hurst) * np.sinc(x) ** 2
        offcenter = _hurwitz_zeta(s, 1.0 + x) + _hurwitz_zeta(s, 1.0 - x)
        return self.scale * (central + (2.0 * np.sin(lam / 2.0)) ** 2 * TWO_PI ** -s * offcenter)

    def singularities(self):
        if self.hurst == 0.5:
            return ()
        return (Singularity(0.0, "algebraic", 1.0 - 2.0 * self.hurst),)

    def covariances(self, kmax, ar):
        """r(k) = r0/2 (|k+1|^2H - 2|k|^2H + |k-1|^2H), r0 = 2 pi scale /
        (Gamma(2H+1) sin(pi H)) (Beran 1994, section 2.3), with no truncation.
        r(1) = r0 expm1((2H-1) ln 2).  From k = 2 the second difference is
        r0 k^2H sum_{j>=1} C(2H, 2j) k^-2j, whose terms share one sign and
        shrink at least 4-fold, so nothing cancels and 28 terms reach double
        rounding, 56 double-double's."""
        h2, terms = 2.0 * self.hurst, 56 if ar is dd else 28
        gamma = dd.gamma if ar is dd else math.gamma       # numpy has none
        r0 = ar.pi * (2.0 * self.scale) / (gamma(h2) * h2 * ar.sin(ar.pi * self.hurst))
        out = ar.empty(kmax + 1)
        out[0] = r0
        j = ar.arange(0, 2 * terms, 2)
        below = h2 - j - 1.0
        if kmax:
            out[1] = ar.expm1(ar.log(2.0) * below[0]) * r0
        c = ((h2 - j) * below / ((j + 1.0) * (j + 2.0))).cumprod()
        k = ar.arange(2, kmax + 1)
        u, s = 1.0 / (k * k), c[terms - 1]
        for i in range(terms - 2, -1, -1):
            s = s * u + c[i]
        out[2:] = ar.exp(ar.log(k) * h2) * u * s * r0
        return out, "exact"


@dataclass(frozen=True)
class FisherHartwig(SpectralModel, variant="fisher_hartwig"):
    """base density times prod_k |e^{i*lambda} - e^{i*lambda_k}|^{2*alpha_k}.

    The point set must be symmetric under negation (points at 0 and +/-pi may
    stand alone) so the density stays even and covariances real.
    """

    base: SpectralModel
    points: tuple[tuple[Angle, float], ...]

    def __post_init__(self):
        pts = tuple((float(a), float(e)) for a, e in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValidationError("at least one singular point is required")
        angles = [a for a, _ in pts]
        _check_angle_range(angles)
        if len(set(angles)) != len(angles):
            raise ValidationError("singular angles must be pairwise distinct")
        for a, e in pts:
            check_alpha(e)
            if abs(a) > 1e-12 and abs(abs(a) - math.pi) > 1e-12:
                mirrored = [(b, f) for b, f in pts if abs(b + a) < 1e-12]
                if not mirrored or abs(mirrored[0][1] - e) > 1e-12:
                    raise ValidationError(
                        "singular points off 0 and pi must come in symmetric pairs "
                        "with equal exponents (even density)")

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = self.base.values(lam)
        for a, e in self.points:
            with np.errstate(divide="ignore"):
                out = out * (2.0 * np.abs(np.sin((lam - a) / 2.0))) ** (2.0 * e)
        return out

    def log_values(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = self.base.log_values(lam)
        for a, e in self.points:
            with np.errstate(divide="ignore"):
                out = out + 2.0 * e * np.log(2.0 * np.abs(np.sin((lam - a) / 2.0)))
        return out

    def singularities(self):
        mine = tuple(Singularity(a, "algebraic", 2.0 * e) for a, e in self.points)
        return _merge_singularities(mine + self.base.singularities())


@dataclass(frozen=True)
class FlatZero(SpectralModel, variant="flat_zero"):
    """f(lambda) = exp(-|lambda|^{-a}) with f(0) = 0; a >= 1 kills the Szego integral."""

    a: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValidationError("flat-zero rate must be a positive real")

    def values(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        out = np.zeros_like(lam)
        nz = lam > 0
        with np.errstate(over="ignore"):
            out[nz] = np.exp(-lam[nz] ** (-self.a))
        return out

    def log_values(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        with np.errstate(divide="ignore"):
            return -lam ** (-self.a)

    def singularities(self):
        return (Singularity(0.0, "essential", rate=self.a),)

    def covariances(self, kmax, ar):
        """r(0..kmax) by composite 24-node Gauss-Legendre in double-double, None
        in double, where the covariance quadrature integrates it.

        The integrand is below 1e-45 for lam < (45 ln 10)^(-1/a), so integration
        starts there and ends at pi in double-double; panels of at most
        min(6/kmax, 0.05) resolve the fastest oscillation.
        """
        if ar is not dd:
            return None
        cut = (45.0 * math.log(10.0)) ** (-1.0 / self.a)
        h = min(6.0 / max(kmax, 1), 0.05)
        panels = math.ceil((math.pi - cut) / h)
        edges = dd.DD(np.linspace(cut, math.pi, panels + 1), np.zeros(panels + 1))
        edges[-1] = dd.pi
        x, w = dd_gl_nodes(24)
        half = ((edges[1:] - edges[:-1]) * 0.5).reshape(-1, 1)
        lam = ((edges[1:] + edges[:-1]) * 0.5).reshape(-1, 1) + half * x
        f = dd.exp(-dd.exp(dd.log(lam) * -self.a))
        return dd_cosine_moments(lam.reshape(-1), (half * w).reshape(-1), f.reshape(-1),
                                 kmax), "quadrature"


@dataclass(frozen=True)
class PollaczekSzego(SpectralModel, variant="pollaczek_szego"):
    """Even density exp((2|lambda|-pi)*phi)/cosh(pi*phi), phi = (a/2)*cot|lambda|.

    The contact with zero at 0 and +/-pi is of exponential order, so the Szego
    integral diverges for every a > 0 (light deterministic model).
    """

    a: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValidationError("parameter must be a positive real")

    def log_values(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        out = np.full_like(lam, -np.inf)
        inside = (lam > 0) & (lam < np.pi)
        with np.errstate(divide="ignore", over="ignore"):
            phi = 0.5 * self.a / np.tan(lam[inside])
            # log cosh(x) = |x| + log1p(exp(-2|x|)) - log 2, overflow-safe
            log_cosh = np.abs(np.pi * phi) + np.log1p(np.exp(-2.0 * np.abs(np.pi * phi))) - math.log(2.0)
            out[inside] = (2.0 * lam[inside] - np.pi) * phi - log_cosh
        return out

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        out = np.exp(self.log_values(np.atleast_1d(lam)))
        return out[0] if scalar else out

    def singularities(self):
        # ln f ~ -pi*a/|lambda - angle| at each
        return tuple(Singularity(angle, "essential", rate=1.0)
                     for angle in (0.0, math.pi, -math.pi))


@dataclass(frozen=True)
class ArcSupported(SpectralModel, variant="arc_supported"):
    """level * indicator{alpha <= |lambda| <= pi}; purely deterministic spectrum."""

    alpha: Angle
    level: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < math.pi):
            raise ValidationError("arc edge must lie in (0, pi)")
        if not (self.level > 0.0 and math.isfinite(self.level)):
            raise ValidationError("level must be a positive real")

    def values(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        return np.where(lam >= self.alpha, self.level, 0.0)

    def singularities(self):
        return (Singularity(self.alpha, "edge", None),
                Singularity(-self.alpha, "edge", None))

    def covariances(self, kmax, ar):
        a, lv = self.alpha, self.level
        k = ar.arange(1, kmax + 1)
        out = ar.empty(kmax + 1)
        out[0] = 2 * lv * (ar.pi - a)
        out[1:] = ar.sin(k * a) * (-2 * lv) / k
        return out, "exact"


@dataclass(frozen=True)
class Product(SpectralModel, variant="product"):
    left: SpectralModel
    right: SpectralModel

    def values(self, lam):
        return self.left.values(lam) * self.right.values(lam)

    def log_values(self, lam):
        return self.left.log_values(lam) + self.right.log_values(lam)

    def falpha_reduction(self, ar):
        left, right = self.left.falpha_reduction(ar), self.right.falpha_reduction(ar)
        if left is None or right is None or not left[0] + right[0] > -0.5:
            return None
        (a1, c1, g1), (a2, c2, g2) = left, right
        # product of two symmetric trig polynomials: convolve full coefficient
        # vectors and keep the nonnegative-lag half
        full = np.convolve(np.concatenate((g1[:0:-1], g1)), np.concatenate((g2[:0:-1], g2)))
        return a1 + a2, c1 * c2 / (2 * ar.pi), full[(len(full) - 1) // 2:]


@dataclass(frozen=True)
class Scaled(SpectralModel, variant="scaled"):
    model: SpectralModel
    factor: float

    def __post_init__(self):
        if not (self.factor >= 0.0 and math.isfinite(self.factor)):
            raise ValidationError("scaling factor must be a finite nonnegative real")

    def values(self, lam):
        return self.factor * self.model.values(lam)

    def log_values(self, lam):
        if self.factor == 0.0:
            return np.full_like(np.asarray(lam, dtype=float), -np.inf)
        return math.log(self.factor) + self.model.log_values(lam)

    def zero_density(self):
        return self.factor == 0.0 or super().zero_density()

    def falpha_reduction(self, ar):
        inner = self.model.falpha_reduction(ar)
        return None if inner is None else (inner[0], inner[1] * self.factor, inner[2])

    def covariances(self, kmax, ar):
        # the factor multiplies the model's closed form, whatever gives it; the
        # reduction above folds it into C only inside products and fractions
        inner = self.model.covariances(kmax, ar)
        return None if inner is None else (inner[0] * self.factor, inner[1])


@dataclass(frozen=True)
class FrequencyShifted(SpectralModel, variant="frequency_shifted"):
    """Base density evaluated at lambda + shift, reduced mod 2*pi into [-pi, pi]."""

    model: SpectralModel
    shift: Angle

    def __post_init__(self):
        _check_angle_range(self.shift)

    def values(self, lam):
        return self.model.values(_reduce_angle(np.asarray(lam, dtype=float) + self.shift))

    def log_values(self, lam):
        return self.model.log_values(_reduce_angle(np.asarray(lam, dtype=float) + self.shift))

    def singularities(self):
        return _merge_singularities(replace(s, angle=float(_reduce_angle(s.angle - self.shift)))
                                    for s in self.model.singularities())

    def _axis_sign(self):
        """1.0 for a shift by 0, -1.0 for one by +/-pi, None for any other."""
        if abs(self.shift) < 1e-15:
            return 1.0
        return -1.0 if abs(abs(self.shift) - math.pi) < 1e-15 else None

    def is_even(self):
        return self._axis_sign() is not None and super().is_even()

    def covariances(self, kmax, ar):
        """A shift by 0 or pi multiplies r(k) by (+1)^k or (-1)^k."""
        sign = self._axis_sign()
        inner = None if sign is None else self.model.covariances(kmax, ar)
        return None if inner is None else (inner[0] * sign ** np.arange(kmax + 1), inner[1])


#: which kind stays where two singularities meet
_RANK = {"algebraic": 0, "essential": 1, "edge": 2}


def _merge_singularities(sings):
    """One singularity per angle (to 12 places), of the higher kind in _RANK,
    the faster of two essential zeros.  Algebraic exponents add, also onto an
    edge, where they are f's power on its live side."""
    seen = {}
    for s in sings:
        prev = seen.setdefault(round(s.angle, 12), s)
        if prev is s:
            continue
        top = max(prev, s, key=lambda t: (_RANK[t.kind], t.rate or 0.0))
        if top.kind != "essential":
            powers = [t.exponent for t in (prev, s) if t.exponent is not None]
            top = Singularity(prev.angle, top.kind, sum(powers[1:], powers[0]) if powers else None)
        seen[round(s.angle, 12)] = top
    return tuple(seen.values())


@dataclass(frozen=True)
class SpectralMeasure:
    """A density plus optional point atoms; the source of truth for f, mu, F."""

    density: SpectralModel
    atoms: tuple[tuple[Angle, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        angles = [a for a, _ in atoms]
        _check_angle_range(angles)
        if len(set(angles)) != len(angles):
            raise ValidationError("atom angles must be pairwise distinct")
        for _, w in atoms:
            if not (w > 0.0 and math.isfinite(w)):
                raise ValidationError("atom masses must be positive reals")
        if self.density.zero_density() and not atoms:
            raise ValidationError("measure must have positive total mass")

    def require_order(self, n: int):
        """Reject computations whose Toeplitz matrix cannot be positive definite."""
        if self.density.zero_density() and len(self.atoms) < n + 2:
            raise ValidationError(
                f"a purely atomic measure needs at least {n + 2} atoms to support "
                f"an order-{n} computation")

    def to_json(self) -> dict:
        return _fields_json(self)


def as_measure(obj) -> SpectralMeasure:
    if isinstance(obj, SpectralMeasure):
        return obj
    if isinstance(obj, SpectralModel):
        return SpectralMeasure(obj)
    raise ValidationError(f"expected a spectral model or measure, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate(model: SpectralModel, angle):
    """Pointwise density value(s); `angle` may be a scalar or an array in [-pi, pi]."""
    _check_angle_range(angle)
    arr = np.asarray(angle, dtype=float)
    out = model.values(arr)
    return float(out) if arr.ndim == 0 else out


def szego_integral(model: SpectralModel):
    """integral of ln f over [-pi, pi], or MINUS_INFINITY.

    Divergence (density vanishing on a set of positive measure, or a
    non-integrable contact at a point) is read off the declared singularities,
    never from the size of a quadrature result.  The integrand is symmetrized over
    +/-lambda, so the value is correct for shifted (non-even) models too.
    """
    if model.szego_diverges():
        return MINUS_INFINITY
    lam, w = log_integral_grid(model)
    vals = 0.5 * (model.log_values(lam) + model.log_values(-lam))
    return 2.0 * float(np.dot(w, vals))


def geometric_mean(model: SpectralModel) -> float:
    """exp of the averaged log density; 0 when the Szego integral diverges."""
    integral = szego_integral(model)
    if integral is MINUS_INFINITY:
        return 0.0
    return math.exp(integral / TWO_PI)


@dataclass(frozen=True)
class Classification:
    """Determinism/memory labels with the evidence used to assign them."""

    determinism: str              # Regular | Nondeterministic | LightDeterministic |
                                  # PurelyDeterministic | Mixed
    memory: str                   # Short | Long | Antipersistent | Unclassified
    origin_exponent: float | None
    szego_integral: object        # float or MINUS_INFINITY

    @property
    def nondeterministic(self) -> bool:
        return self.szego_integral is not MINUS_INFINITY


def classify(measure) -> Classification:
    """Regularity and memory labels for a measure (or bare model)."""
    measure = as_measure(measure)
    model = measure.density
    integral = szego_integral(model)
    if integral is MINUS_INFINITY:
        pure = model.zero_density() or any(s.kind == "edge" for s in model.singularities())
        determinism = "PurelyDeterministic" if pure else "LightDeterministic"
    else:
        determinism = "Mixed" if measure.atoms else "Regular"

    exponent = model.origin_exponent()
    if exponent is None:
        memory = "Unclassified"
    elif exponent < -1e-12:
        memory = "Long"
    elif exponent > 1e-12:
        memory = "Antipersistent"
    else:
        memory = "Short"
    return Classification(determinism, memory, exponent, integral)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def parse_angle(text) -> float:
    """Angles as plain floats or multiples of pi via a 'pi' suffix ('0.5pi', '-pi')."""
    if not isinstance(text, str):
        return _real(text)
    s = text.strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        return float({"": "1", "+": "1", "-": "-1"}.get(head, head)) * math.pi
    return float(s)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _items(value, length=None) -> list:
    """A JSON list, of `length` items when given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise TypeError(f"expected a list{'' if length is None else f' of {length}'}, "
                        f"got {value!r}")
    return value


def _fields_json(obj) -> dict:
    """The fields of a model or measure as JSON values: nested models become
    documents, tuples lists."""
    def encode(value):
        if isinstance(value, SpectralModel):
            return value.to_json()
        return [encode(v) for v in value] if isinstance(value, tuple) else value
    return {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}


def _from_fields(cls, doc: dict, name: str):
    """cls built from the document's fields, each decoded by its annotation;
    a missing field takes the constructor's default."""
    kwargs = {}
    for f in fields(cls):
        if f.name in doc:
            try:
                kwargs[f.name] = _DECODERS[f.type](doc[f.name])
            except (TypeError, ValueError, OverflowError) as err:
                raise ValidationError(f"{name}.{f.name}: {err}") from None
        elif f.default is MISSING:
            raise ValidationError(f"{name}: missing field {f.name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"{name}: {err}") from None


#: deepest nesting of lists and objects in a model document; it keeps every
#: walk over a model, one recursion per level, inside Python's limit
MAX_DOCUMENT_DEPTH = 64


def _check_depth(doc):
    """Refuse a document with items below MAX_DOCUMENT_DEPTH levels of nesting."""
    level = [doc]
    for _ in range(MAX_DOCUMENT_DEPTH + 1):
        level = [v for item in level if isinstance(item, (dict, list))
                 for v in (item.values() if isinstance(item, dict) else item)]
    if level:
        raise ValidationError(f"model document nested deeper than {MAX_DOCUMENT_DEPTH} levels")


def model_from_json(doc) -> SpectralModel:
    """Build a model from its document, a JSON object whose 'variant' names the
    class and whose other keys are the constructor's field names.  Unknown keys
    are ignored; a missing, ill-typed or out-of-range field is a ValidationError,
    and so is a document nested deeper than MAX_DOCUMENT_DEPTH."""
    _check_depth(doc)
    return _model(doc)


def _model(doc) -> SpectralModel:
    if not isinstance(doc, dict) or "variant" not in doc:
        raise ValidationError("model document needs a 'variant' field")
    variant = doc["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ValidationError(f"unknown model variant {variant!r}")
    return _from_fields(_VARIANTS[variant], doc, variant)


def measure_from_json(doc) -> SpectralMeasure:
    """Build a measure from {'density': ..., 'atoms': ...} or a bare model document."""
    _check_depth(doc)
    if isinstance(doc, dict) and "density" in doc:
        return _from_fields(SpectralMeasure, doc, "measure")
    return SpectralMeasure(_model(doc))


#: decoders of document values by the annotation of the field they fill
_DECODERS = {
    "float": _real,
    "Angle": parse_angle,
    "tuple[float, ...]": lambda v: tuple(map(_real, _items(v))),
    "tuple[tuple[Angle, float], ...]": lambda v: tuple(
        (parse_angle(a), _real(b)) for a, b in (_items(p, 2) for p in _items(v))),
    "SpectralModel": _model,
}


def load_measure(path) -> SpectralMeasure:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ValidationError(f"cannot read model {path}: {err}") from err
    return measure_from_json(doc)
