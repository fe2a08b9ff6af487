"""Exponential-decay diagnostics for variances over vanishing spectra.

Two independent estimates of the same constant are produced: the n-th root of
the minimax deviation of unit-normalized polynomials on the spectrum (closed
form on a symmetric gap at even n, Lawson iteration elsewhere), and the limit
of sigma_n^{1/n} fitted from the variance curve itself up to its rounding
floor (extended precision engaged automatically as variances shrink).
Spectra vanishing near the origin on a set of positive measure give a
constant < 1 (exponential decay); spectra positive near the origin give 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import covariance_sequence
from .ddouble import read_only
from .errors import AccuracyError, NearSingularError, ValidationError
from .spectra import as_measure
from .toeplitz import blue_variance_curve

LAWSON_MAX_ITERATIONS = 500
LAWSON_RTOL = 1e-8
LAWSON_WEIGHT_FLOOR = 1e-14
#: switch to double-double once the predicted variance drops below this
EXTENDED_PRECISION_THRESHOLD = 1e-12
#: unit roundoff of each arithmetic; a variance below u * nmax * r(0) is noise
UNIT_ROUNDOFF = {"double": 2.0 ** -53, "dd": 2.0 ** -104}


@dataclass(frozen=True)
class ArcRegion:
    """Union of closed angle intervals within [-pi, pi]."""

    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for lo, hi in self.arcs:
            lo, hi = float(lo), float(hi)
            if not (-math.pi - 1e-12 <= lo <= hi <= math.pi + 1e-12):
                raise ValidationError("arc endpoints must satisfy -pi <= lo <= hi <= pi")
            cleaned.append((max(lo, -math.pi), min(hi, math.pi)))
        cleaned.sort()
        merged = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + 1e-15:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        if not any(hi > lo for lo, hi in merged):
            raise ValidationError("region must have positive length")
        object.__setattr__(self, "arcs", tuple(merged))

    @property
    def contains_one(self) -> bool:
        return any(lo <= 0.0 <= hi for lo, hi in self.arcs)

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    @classmethod
    def full_circle(cls) -> "ArcRegion":
        return cls(((-math.pi, math.pi),))

    @classmethod
    def complement_arc(cls, alpha: float) -> "ArcRegion":
        """The set {alpha <= |lambda| <= pi} (spectrum of an arc-supported density)."""
        if not 0.0 < alpha < math.pi:
            raise ValidationError("arc edge must lie in (0, pi)")
        return cls(((-math.pi, -alpha), (alpha, math.pi)))

    def grid(self, count: int) -> np.ndarray:
        """Closed uniform grid over the union, count points distributed by length."""
        pts = []
        for lo, hi in self.arcs:
            m = max(2, int(round(count * (hi - lo) / self.total_length)))
            pts.append(np.linspace(lo, hi, m))
        return np.concatenate(pts)


@dataclass(frozen=True)
class ChebyshevSolution:
    """Minimax polynomial with value 1 at z=1; coefficients are a read-only copy."""

    order: int
    coefficients: np.ndarray
    deviation: float
    constant_estimate: float
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "coefficients", read_only(np.array(self.coefficients)))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                self.coefficients)


def chebyshev_min_max(region: ArcRegion, n: int) -> ChebyshevSolution:
    """min over {deg <= n, q(1) = 1} of max |q| on the region.

    On a symmetric gap {alpha <= |lambda| <= pi} at even n = 2m it is q(z) =
    z^m T_m(l((z + 1/z)/2)) / T_m(xi), l mapping [-1, cos alpha] affinely onto
    [-1, 1] and xi = l(1), with deviation 1/T_m(xi) and no iterations, refused
    (`AccuracyError`) where that is below the normal doubles; so is the odd
    order n = 2m + 1 on that gap, where q is a candidate too.  The
    coefficients carry errors near eps * sum|c_k|, so evaluating q in double
    can read more than a deviation below that.  Elsewhere, Lawson iteratively
    reweighted least squares on the discretized region: each step solves the
    weighted-L2 problem with the affine constraint eliminated, then multiplies
    the weights by the residual magnitudes.  The best deviation seen is an
    upper bound for the true minimax value whether or not it converged.
    """
    if n < 1:
        raise ValidationError("polynomial order must be at least 1")
    alpha = region.arcs[-1][0]
    if region.arcs != ((-math.pi, -alpha), (alpha, math.pi)):
        return _lawson(region, n)
    m = n // 2
    cos_a = math.cos(alpha)
    log_t_xi = m * math.acosh((3.0 - cos_a) / (1.0 + cos_a))
    if log_t_xi > 1023 * math.log(2.0):     # 1/T_m(xi) below the normal doubles, 2^-1022
        power = (math.log(2.0) - log_t_xi) / math.log(10.0)
        at = f"n = {n}" if n % 2 == 0 else f"n = {n - 1}, which bounds it at n = {n},"
        raise AccuracyError(f"minimax deviation 2 rho^n / (1 + rho^2n) ~ 1e{power:.0f} at "
                            f"{at} is below what double can represent")
    if n % 2:                                # bounded by E_{n-1}, but no closed form
        return _lawson(region, n)
    cheb = np.polynomial.Chebyshev
    # cosine coefficients b_j of T_m(l(x)); T_j(x) = (z^j + z^-j) / 2 on |z| = 1
    b = cheb.basis(m)(cheb([(1.0 - cos_a) / (1.0 + cos_a), 2.0 / (1.0 + cos_a)])).coef
    t_xi = math.cosh(log_t_xi)
    coeffs = np.concatenate((b[:0:-1] / 2.0, b[:1], b[1:] / 2.0)) / t_xi
    return ChebyshevSolution(order=n, coefficients=coeffs, deviation=1.0 / t_xi,
                             constant_estimate=(1.0 / t_xi) ** (1.0 / n),
                             iterations=0, converged=True)


def _lawson(region: ArcRegion, n: int) -> ChebyshevSolution:
    lam = region.grid(max(64 * n, 4096))
    z = np.exp(1j * lam)
    basis = z[:, None] ** np.arange(n + 1)[None, :]
    # eliminate the constraint: q = 1 + sum_{k>=1} y_k (z^k - 1), so the
    # weighted problem is a plain least squares in y (no squared conditioning)
    shifted = basis[:, 1:] - 1.0
    weights = np.full(len(lam), 1.0 / len(lam))

    best_dev = math.inf
    best_c = None
    prev_dev = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, LAWSON_MAX_ITERATIONS + 1):
        sw = np.sqrt(weights)
        y, *_ = np.linalg.lstsq(shifted * sw[:, None], -sw.astype(complex), rcond=None)
        c = np.concatenate(([1.0 - y.sum()], y))
        resid = np.abs(basis @ c)
        dev = float(resid.max())
        if dev < best_dev:
            best_dev = dev
            best_c = c
        if iterations > 3 and abs(dev - prev_dev) <= LAWSON_RTOL * max(dev, 1e-300):
            converged = True
            break
        prev_dev = dev
        weights = weights * np.maximum(resid, LAWSON_WEIGHT_FLOOR)
        weights /= weights.sum()

    best_c = best_c / np.polynomial.polynomial.polyval(1.0 + 0.0j, best_c)
    coeffs = best_c.real if np.max(np.abs(best_c.imag)) < 1e-9 else best_c
    return ChebyshevSolution(order=n, coefficients=coeffs, deviation=best_dev,
                             constant_estimate=best_dev ** (1.0 / n),
                             iterations=iterations, converged=converged)


def chebyshev_constant_estimate(region: ArcRegion, n_grid) -> tuple[float, list]:
    """Estimated minimax constant: the last n-th root, with the full sequence.

    Values above 1 can occur only through discretization error on regions
    containing z=1; they are reported as computed, never clamped.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid:
        raise ValidationError("n grid must be nonempty")
    curve = [chebyshev_min_max(region, n) for n in n_grid]
    return curve[-1].constant_estimate, curve


@dataclass(frozen=True)
class DecayReport:
    """Fitted decay constant; the arrays are read-only copies of those given."""

    rho: float
    neutrality: str                    # "ExponentiallyNeutral" | "ExponentiallyDecreasing"
    orders: np.ndarray
    sigmas: np.ndarray                 # sqrt of variances on the reachable grid
    fit_standard_error: float
    precision: str
    warning: str | None = None

    def __post_init__(self):
        for name in ("orders", "sigmas"):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name))))


def decay_rate_from_variances(measure, n_grid, precision: str = "auto") -> DecayReport:
    """Fit rho = lim sigma_n^{1/n} by the ratio method on a grid of orders.

    rho is the geometric mean of sigma_{n+1}/sigma_n over the top half of the
    reachable grid.  Extended double-double precision engages automatically
    when the predicted next variance (previous point times rho^2) falls below
    1e-12.  The curve stops before its first variance below u * nmax * r(0)
    (u the arithmetic's unit roundoff), or where the factorization breaks
    down; either truncates the grid and is recorded in the warning.
    """
    measure = as_measure(measure)
    if precision not in ("auto", "double", "dd"):
        raise ValidationError(f"unknown precision {precision!r}")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValidationError("order grid must be nonempty with positive entries")
    nmax = n_grid[-1] + 1

    used = "double" if precision in ("auto", "double") else "dd"
    curve, warning = _curve_with_truncation(measure, nmax, used)
    if precision == "auto" and (warning or _needs_extended(curve)):
        try:
            curve, warning = _curve_with_truncation(measure, nmax, "dd")
            used = "dd"
        except ValidationError:
            pass        # no extended covariance for this model; keep double

    reachable = len(curve) - 1
    orders = np.array([n for n in n_grid if n + 1 <= reachable])
    if len(orders) == 0:
        raise NearSingularError("no grid point reachable", order=reachable,
                                extended=used == "dd")
    if len(orders) < len(n_grid) and warning is None:
        warning = f"grid truncated at order {reachable - 1}"

    sigmas = np.sqrt(curve[orders])
    ratios = np.sqrt(curve[orders + 1]) / sigmas
    log_ratios = np.log(ratios)
    top = log_ratios[len(log_ratios) // 2:]
    bottom = log_ratios[:len(log_ratios) // 2] if len(log_ratios) > 1 else top
    rho = float(np.exp(top.mean()))
    # fit error of "constant log-ratio": sampling spread plus the drift between
    # grid halves, so sequences whose ratios are still climbing toward 1
    # (hyperbolic and flatter-than-exponential decay) read as neutral
    spread = float(np.std(top, ddof=1) / math.sqrt(len(top))) if len(top) > 1 else 0.0
    drift = abs(float(top.mean() - bottom.mean())) if len(bottom) else 0.0
    se = max(spread, drift)
    neutrality = ("ExponentiallyDecreasing" if rho <= 1.0 - 5.0 * se
                  else "ExponentiallyNeutral")
    return DecayReport(rho=rho, neutrality=neutrality, orders=orders, sigmas=sigmas,
                       fit_standard_error=se, precision=used, warning=warning)


def _curve_with_truncation(measure, nmax, precision):
    """Variance curve as far as its arithmetic resolves: below a breakdown or a
    double variance out of range (as the failed pass computed it) and before
    the first variance under the floor."""
    cov = covariance_sequence(measure, nmax, precision=precision)
    kind = "extended" if precision == "dd" else "double"
    try:
        curve, warning = blue_variance_curve(cov, precision=precision), None
    except NearSingularError as err:
        # a breakdown ran in double-double or carries its reflections; a double
        # variance out of range, which is under the floor too, does neither
        breakdown = err.extended or err.reflections is not None
        if breakdown and err.order <= 2:
            raise
        curve = err.curve[:err.order]
        warning = f"grid truncated at order {err.order - 1}: " + (
            f"factorization breakdown in {kind} precision" if breakdown else str(err))
    floor = UNIT_ROUNDOFF[precision] * nmax * cov.values[0]
    below = np.flatnonzero(curve < floor)
    if len(below):
        curve = curve[:below[0]]
        warning = (f"grid truncated at order {below[0] - 1}: variance at order {below[0]} "
                   f"below the {kind} rounding floor {floor:.3g}")
    return curve, warning


def _needs_extended(curve) -> bool:
    if curve[-1] < EXTENDED_PRECISION_THRESHOLD:
        return True
    if len(curve) > 2 and curve[-2] > 0:
        predicted = curve[-1] * (curve[-1] / curve[-2])
        if predicted < EXTENDED_PRECISION_THRESHOLD:
            return True
    return False
