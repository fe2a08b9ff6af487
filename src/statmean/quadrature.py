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
    (lam, w), via the Chebyshev recurrence in k."""
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
