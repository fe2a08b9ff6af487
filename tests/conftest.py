"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve, toeplitz

import statmean as st

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session")
def white_noise():
    return st.WhiteNoise(1.0 / TWO_PI)


@pytest.fixture(scope="session")
def ma1():
    return st.Arma(ma=(1.0, -0.5))


@pytest.fixture(scope="session")
def ar1():
    return st.Arma(ma=(1.0,), ar=(1.0, -0.5))


@pytest.fixture(scope="session")
def atom_measure(white_noise):
    return st.SpectralMeasure(white_noise, atoms=((0.0, 0.5),))


def dense_blue(r, n):
    """Oracle: dense symmetric solve of the covariance system with unit RHS."""
    matrix = toeplitz(np.asarray(r)[: n + 1])
    x = solve(matrix, np.ones(n + 1), assume_a="pos")
    total = x.sum()
    return x / total, 1.0 / total


def mp_dense_blue(cov, dps=50):
    """Oracle: optimal variances and weights from a dense solve at `dps` digits.

    The exact values hi + lo of a dd covariance sequence are factored as
    R = L L^T by Cholesky.  The leading blocks of L factor the leading blocks
    of R, so with y = L^-1 1 the variance at order m is 1 / sum(y[:m+1]^2);
    the weights at the full order are x / sum(x) with x = L^-T y.  Returns the
    variance at every order and those weights, as mpmath numbers.
    """
    with mpmath.workdps(dps):
        r = [mpmath.mpf(h) + mpmath.mpf(l) for h, l in zip(cov.values, cov.lo)]
        size = len(r)
        low = mpmath.cholesky(mpmath.matrix(
            [[r[abs(i - j)] for j in range(size)] for i in range(size)]))
        y = []
        for i in range(size):
            y.append((1 - mpmath.fsum(low[i, j] * y[j] for j in range(i))) / low[i, i])
        curve = [1 / s for s in itertools.accumulate(v * v for v in y)]
        x = [mpmath.mpf(0)] * size
        for i in reversed(range(size)):
            x[i] = (y[i] - mpmath.fsum(low[j, i] * x[j] for j in range(i + 1, size))) / low[i, i]
        total = mpmath.fsum(x)
        return curve, [v / total for v in x]


def dense_christoffel(r, xi, m):
    """Oracle: 1 / (v^H R_m^-1 v) with v_k = conj(xi)^k, from a dense solve."""
    matrix = toeplitz(np.asarray(r)[: m + 1])
    v = np.conj(complex(xi)) ** np.arange(m + 1)
    return 1.0 / float(np.real(np.vdot(v, solve(matrix, v, assume_a="pos"))))


def complex_fourier_coefficient(model, k, points=200001):
    """Oracle: trapezoid integral of e^{-i k lam} f(lam) on a dense offset grid."""
    lam = np.linspace(-np.pi, np.pi, points)
    offset = 1e-9
    for s in model.singularities():
        lam[np.abs(lam - s.angle) < offset] += offset
    vals = model.values(lam) * np.exp(-1j * k * lam)
    return np.trapezoid(vals, lam)


def gram_schmidt_verblunsky(r, n):
    """Oracle: recursion coefficients from dense Toeplitz solves.

    The monic orthogonal polynomial of degree m+1 solves a linear system in
    its lower coefficients; the recursion coefficient is minus its value at 0.
    """
    out = []
    for m in range(n):
        matrix = toeplitz(r[: m + 1])
        rhs = -np.asarray(r[1 : m + 2][::-1])
        coeffs = solve(matrix, rhs)  # coefficients c_0..c_m of z^0..z^m
        out.append(-coeffs[0])
    return np.array(out)


def fgn_covariances_mp(hurst, scale, kmax, dps=60):
    """Oracle: FGN r(0..kmax) at `dps` digits from its second difference,
    r0/2 (|k+1|^2H - 2|k|^2H + |k-1|^2H), r0 = 2 pi scale / (Gamma(2H+1) sin pi H).
    The difference cancels up to k^2 / |H (2H - 1)|-fold: 60 digits leave 40
    at H = 1/2 + 1e-9, k = 4096."""
    with mpmath.workdps(dps):
        h2 = 2 * mpmath.mpf(hurst)
        r0 = 2 * mpmath.pi * scale / (mpmath.gamma(h2 + 1) * mpmath.sin(mpmath.pi * h2 / 2))
        power = [mpmath.mpf(k) ** h2 for k in range(kmax + 2)]
        return [r0] + [r0 / 2 * (power[k + 1] - 2 * power[k] + power[k - 1])
                       for k in range(1, kmax + 1)]


def fgn_density_mp(hurst, scale, lam, dps=40):
    """Oracle: the FGN density at each angle at `dps` digits, from Hurwitz zeta:
    scale [|lam|^(1-2H) (sin(lam/2) / (lam/2))^2 + 4 sin^2(lam/2) (2 pi)^-s
    (zeta(s, 1 + x) + zeta(s, 1 - x))], s = 2H + 1, x = lam / 2 pi; lam != 0."""
    with mpmath.workdps(dps):
        s = 2 * mpmath.mpf(hurst) + 1
        out = []
        for angle in lam:
            a = mpmath.mpf(float(angle))
            x, half = a / (2 * mpmath.pi), a / 2
            offcenter = mpmath.zeta(s, 1 + x) + mpmath.zeta(s, 1 - x)
            out.append(scale * (abs(a) ** (2 - s) * (mpmath.sin(half) / half) ** 2
                                + 4 * mpmath.sin(half) ** 2 * (2 * mpmath.pi) ** -s * offcenter))
        return out


def arma_covariances_mp(ar, ma, scale, kmax, dps=40):
    """Oracle: ARMA r(0..kmax) and their envelopes at `dps` digits, by residues.

    With psi the AR polynomial and w_i the roots of z^p psi(1/z) (inside the
    unit disc, each simple), the AR part has gamma(k) = scale sum_i c_i w_i^k,
    c_i = w_i^(p-1) / (psi(w_i) d/dz[z^p psi(1/z)](w_i)), the residues of
    z^(k-1) / (psi(z) psi(1/z)) inside the circle.  The MA autocorrelation g_t
    then gives g_0 gamma(k) + sum_t g_t (gamma(k+t) + gamma(|k-t|)).  The
    envelope takes |c_i w_i^k| and |g_t| in place of each term: it is |r(k)|
    where no terms of opposite sign meet, and otherwise the scale against
    which a recurrence's error is measured where a damped cosine crosses 0.
    """
    with mpmath.workdps(dps):
        a = [mpmath.mpf(c) for c in ar]
        p, q = len(a) - 1, len(ma) - 1
        roots = mpmath.polyroots(a, maxsteps=200, extraprec=2 * dps)
        coeffs = [w ** (p - 1) / (mpmath.polyval(a[::-1], w)
                                  * mpmath.polyval([c * (p - j) for j, c in enumerate(a[:-1])], w))
                  for w in roots]
        gamma, env, power = [], [], [mpmath.mpf(1)] * p
        for _ in range(kmax + q + 1):
            terms = [c * x for c, x in zip(coeffs, power)]
            gamma.append(scale * mpmath.re(mpmath.fsum(terms)))
            env.append(scale * mpmath.fsum(abs(t) for t in terms))
            power = [x * w for x, w in zip(power, roots)]
        theta = [mpmath.mpf(c) for c in ma]
        g = [mpmath.fsum(theta[i] * theta[i + t] for i in range(q + 1 - t)) for t in range(q + 1)]

        def fold(seq, weight):
            return [weight(g[0]) * seq[k] + mpmath.fsum(
                weight(g[t]) * (seq[k + t] + seq[abs(k - t)]) for t in range(1, q + 1))
                for k in range(kmax + 1)]

        return fold(gamma, lambda x: x), fold(env, abs)
