"""Composite Gauss-Legendre grids graded toward declared singular angles.

All densities in this library are even, so every integral over [-pi, pi] is
computed as twice an integral over [0, pi].  Grids are built from three
ingredients:

* uniform panels sized so the fastest oscillation exp(i*k*lambda) present in
  the integrand is resolved (panel length <= OSC_RADIANS / k),
* geometric subdivision toward each singular angle (ratio 1/2, 40 panels per
  singularity by default), which handles |lambda|^(2*alpha) and log endpoints
  without adaptive machinery,
* panel boundaries placed exactly on edge singularities so discontinuities
  never fall inside a panel.

Gauss-Legendre nodes are interior, so a grid never probes a singular angle.

The cosine moments of a density on such a grid, the covariances, the Fourier
coefficients of 1/f and those of ln f, come from one nonuniform FFT,
`cosine_moments`: O(nodes + kmax log kmax) work, within 2e-15 of sum |w f| of
a double-double sum at every lag tested up to 4096; `dd_cosine_moments` is
its double-double twin, by a cosine recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import ddouble as dd

NODES_PER_PANEL = 32
SINGULAR_PANELS = 40
#: capped so the innermost panel edges stay normal doubles and power-law
#: density values at the innermost nodes cannot overflow for any exponent > -1
MAX_SINGULAR_PANELS = 900
GRADE_RATIO = 0.5
#: max radians of oscillation phase per panel; 32-node panels integrate this
#: to well below 1e-15 relative error.
OSC_RADIANS = 14.0
#: `cosine_moments` spreads each node over SPREAD_HALF_WIDTH grid points a
#: side, on a grid of GRID_PER_LAG points per lag, 4x oversampling of the lags
#: -kmax-1..kmax; with tau = pi SPREAD_HALF_WIDTH / (size (size - kmax - 1))
#: the Gaussian's aliasing and truncation at lag kmax are both e^-37.7 = 4e-17
#: of sum |w f|
SPREAD_HALF_WIDTH, GRID_PER_LAG = 14, 8
#: entries of one block of `dd_cosine_moments`' cosine table, which keeps each
#: of its arrays near 1 MB, and the lag step of its recurrence
_TABLE_SIZE, _LAG_STEP = 1 << 17, 8


@lru_cache(maxsize=8)
def _gl_nodes(m: int):
    return tuple(map(dd.read_only, np.polynomial.legendre.leggauss(m)))


@lru_cache(maxsize=2)
def dd_gl_nodes(m: int):
    """Gauss-Legendre nodes and weights in double-double: two Newton steps on
    P_m from the double nodes, then w = 2 / ((1 - x^2) P_m'(x)^2).  The
    recurrence runs on q_j = j! P_j, q_j = (2j-1) x q_{j-1} - (j-1)^2 q_{j-2},
    whose factors are exact doubles."""
    x = dd.DD(_gl_nodes(m)[0].copy(), np.zeros(m))
    for step in range(3):
        q0, q1 = 1.0, x
        for j in range(2, m + 1):
            q0, q1 = q1, x * q1 * float(2 * j - 1) - q0 * float((j - 1) ** 2)
        slope = (x * q1 - q0 * float(m)) * float(m)        # m! (x^2 - 1) P_m'(x)
        if step < 2:
            x = x - q1 * (x * x - 1.0) / slope
    w = dd.exact(math.factorial(m) ** 2) * (1.0 - x * x) * 2.0 / (slope * slope)
    return dd.read_only(x), dd.read_only(w)


def depth_for_exponent(exponent, default=SINGULAR_PANELS):
    """Grading depth so the mass below the innermost panel is ~1e-13.

    For f ~ |lam - s|^e the innermost-panel mass scales like (2^-D)^(1+e),
    so D must grow like 44/(1+e) as e approaches -1.
    """
    if exponent is None or exponent >= 0.0:
        return default
    needed = int(math.ceil(44.0 / max(1.0 + exponent, 1e-3)))
    return min(max(default, needed), MAX_SINGULAR_PANELS)


def _panel_edges(depth_by_angle, osc_k, base_panels):
    """Panel edges on [0, pi] graded toward each singular angle."""
    folded = {}
    for angle, depth in depth_by_angle.items():
        key = min(abs(angle), math.pi)
        folded[key] = max(depth, folded.get(key, 0))
    anchors = sorted({0.0, math.pi} | set(folded))

    h_max = math.pi / max(base_panels, 1)
    if osc_k > 0:
        h_max = min(h_max, OSC_RADIANS / osc_k)

    edges = [0.0]
    for left, right in zip(anchors[:-1], anchors[1:]):
        if right - left <= 1e-15:
            continue
        mid = 0.5 * (left + right)
        sub = [left]
        dl = folded.get(left, 0)
        if dl:
            sub += [left + (mid - left) * GRADE_RATIO ** j for j in range(dl, 0, -1)]
        sub.append(mid)
        dr = folded.get(right, 0)
        if dr:
            sub += [right - (right - mid) * GRADE_RATIO ** j for j in range(1, dr + 1)][::-1]
        sub.append(right)
        # split any remaining wide stretch uniformly for oscillation control
        for a, b in zip(sub[:-1], sub[1:]):
            if b - a > h_max:
                parts = int(math.ceil((b - a) / h_max))
                edges.extend(np.linspace(a, b, parts + 1)[1:])
            else:
                edges.append(b)
    return np.unique(np.asarray(edges))


def half_line_grid(depth_by_angle, osc_k=0, base_panels=8, nodes=NODES_PER_PANEL):
    """Nodes/weights on [0, pi] graded toward the {angle: depth} mapping's angles.

    Returns (lam, w) so that sum(w * g(lam)) approximates the integral of g
    over [0, pi]; integrals of even functions over [-pi, pi] are twice that.
    """
    edges = _panel_edges(depth_by_angle, osc_k, base_panels)
    x, w = _gl_nodes(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    lam = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return lam, wts


@lru_cache(maxsize=8)
def _graded_grid(depths, osc_k, base_panels, nodes):
    """`half_line_grid` of the sorted (angle, depth) pairs `depths`, read-only,
    for the 8 gradings asked last: enough for the reuse within one call chain
    (a finite-efficiency sweep over four orders builds 6), while grids no
    longer asked for would only hold memory."""
    grid = half_line_grid(dict(depths), osc_k=osc_k, base_panels=base_panels, nodes=nodes)
    return tuple(map(dd.read_only, grid))


def model_grid(model, osc_k=0, base_panels=8, depth=SINGULAR_PANELS, nodes=NODES_PER_PANEL):
    """Read-only grid on [0, pi] graded toward `model`'s singular angles.

    The grading depth per angle grows with the strength of any negative
    algebraic exponent there; flat-zero style essential singularities need no
    extra depth because the density underflows to an exact 0 well before the
    angle, so the innermost panels contribute exact zeros.

    Grids are cached per grading, so models with the same singular angles and
    depths share one, with the oscillation requirement rounded up to the next
    power of two, so sweeps over many orders share a handful of grids (a
    finer grid is always valid for smaller k).
    """
    if osc_k > 0:
        osc_k = 1 << max(3, (osc_k - 1).bit_length())
    depths = {s.angle: depth_for_exponent(s.exponent, depth)
              for s in model.singularities()}
    return _graded_grid(tuple(sorted(depths.items())), osc_k, base_panels, nodes)


def cosine_moments(lam, w, fvals, kmax):
    """m[k] = 2 * sum w * cos(k*lam) * f, k = 0..kmax, over a half-line grid
    (lam, w), by a type-1 nonuniform FFT (Dutt & Rokhlin 1993; Greengard &
    Lee, SIAM Review 2004).

    Each node's w f is spread by a Gaussian onto the 2 SPREAD_HALF_WIDTH + 1
    nearest of GRID_PER_LAG (kmax + 1) points on [0, 2 pi), one `np.bincount`
    per offset with each offset's factors stepped from the last, so memory
    stays O(nodes + kmax).  Nodes are placed on the grid in double-double, or
    lag k would see k times lam's rounding.  One `rfft`, divided by the
    Gaussian's Fourier coefficients, gives the moments.
    """
    half, size = SPREAD_HALF_WIDTH, GRID_PER_LAG * (kmax + 1)
    tau = math.pi * half / (size * (size - kmax - 1))
    beta = (math.pi / size) ** 2 / tau
    cells = float(size) / (2.0 * dd.pi)                # grid cells per radian
    hi, lo = dd.two_prod(lam, cells.hi)
    near = np.rint(hi)
    u = (hi - near) + (lo + lam * cells.lo)            # offset from the nearest cell
    index = near.astype(np.intp) % size
    up = np.exp(2.0 * beta * u)
    left = right = w * fvals * np.exp(-beta * u * u)
    down = 1.0 / up
    spread = np.zeros(size + 2 * half)                 # grid points -half .. size + half - 1
    spread[half:half + size] = np.bincount(index, right, size)
    for j in range(1, half + 1):
        step = math.exp(-beta * (2 * j - 1))
        right, left = right * up * step, left * down * step
        spread[half + j:half + j + size] += np.bincount(index, right, size)
        spread[half - j:half - j + size] += np.bincount(index, left, size)
    grid = np.bincount((np.arange(size + 2 * half) - half) % size, spread, size)
    k = np.arange(kmax + 1)
    scale = 2.0 * math.sqrt(math.pi / tau) / size
    return np.fft.rfft(grid)[:kmax + 1].real * (scale * np.exp(k * k * tau))


def dd_cosine_moments(lam, w, fvals, kmax):
    """The double-double twin of `cosine_moments`: m[k] = 2 * sum w * cos(k*lam)
    * f, k = 0..kmax, for `dd.DD` nodes, weights and values.

    In blocks of nodes whose cosine table holds at most _TABLE_SIZE entries,
    cos(k lam) = 2 cos(s lam) cos((k-s) lam) - cos((k-2s) lam) gives the lags
    with s = 1 below 2B and then s = B = _LAG_STEP, B rows at a time: a
    three-term recurrence of n steps amplifies errors at most n + 1 times.
    """
    step, rows = _LAG_STEP, min(2 * _LAG_STEP, kmax + 1)
    block, out = max(1, _TABLE_SIZE // (kmax + 1)), 0.0
    cosines, weighted = dd.cos(lam), w * fvals        # each one call over every node
    for j in range(0, len(lam), block):
        cos, g = cosines[j:j + block], weighted[j:j + block]
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
        out = dd.DD(*dd.two_sum(hi[:, 0], lo)) + out
    return out * 2.0


def log_integral_grid(model):
    """Grid for integrating ln f: deeper grading for power-law contacts.

    A contact ln f ~ -c*|lambda|^(-a) (a < 1, flat-zero class) needs geometric
    panels down to scales where the remaining mass of |lambda|^(-a) is
    negligible, which takes about 12/((1-a)*log10 2) halvings; a is the rate
    the model declares on its essential singularity.
    """
    depth = SINGULAR_PANELS
    for s in model.singularities():
        if s.kind == "essential":
            depth = max(depth, int(12.0 / ((1.0 - min(s.rate, 0.95)) * math.log10(2.0))) + 10)
    return model_grid(model, osc_k=0, depth=depth)
