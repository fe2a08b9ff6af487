"""Covariance sequences r(0..n) from spectral measures.

A variant with a closed form computes it itself (`SpectralModel.covariances`),
over the arithmetic this module passes it: the module `numpy` for
precision="double", `ddouble` for precision="dd".  No closed form lives here.
They are the same in both precisions and cover models that reduce to a
power-at-origin factor times a finite trigonometric polynomial (white noise,
pure-MA ARMA, fractional factors of those, products, scalings), fractional
Gaussian noise, ARMA whose AR polynomial has every root outside the unit
disc, arc-supported indicators, scalings of these, and shifts of any of them
by 0 or pi; a flat-zero density integrates itself by Gauss-Legendre
quadrature in double-double.  Every other density (Fisher-Hartwig, ARFIMA or
products over an AR part, Pollaczek-Szego, an AR polynomial with a root in
the unit disc) goes through singularity-graded double quadrature, its moments
by the nonuniform FFT of `quadrature.cosine_moments`, with a refinement
cross-check at absolute tolerance 1e-12 per coefficient, and has no
double-double form.  A density that is not finite at a node, such as a pole
graded below double resolution, is refused before its moments are taken.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ddouble as dd
from . import quadrature
from .errors import AccuracyError, ValidationError
from .spectra import as_measure, check_alpha, falpha

#: absolute tolerance per quadrature coefficient
QUAD_TOL = 1e-12


def falpha_covariance_array(alpha: float, kmax: int) -> np.ndarray:
    """r_alpha(0..kmax) rounded once to double: r(0) is correctly rounded."""
    return np.asarray(falpha(alpha, kmax))


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


def _arithmetic(precision: str):
    """The module `numpy` for precision="double", `ddouble` for "dd"."""
    if precision not in ("double", "dd"):
        raise ValidationError(f"unknown precision {precision!r}")
    return dd if precision == "dd" else np
