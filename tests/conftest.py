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
