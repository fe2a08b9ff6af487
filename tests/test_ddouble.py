"""Double-double array arithmetic against an mpmath oracle."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statmean import ddouble as dd
from statmean import quadrature

DPS = 50

finite = hst.floats(min_value=-1e10, max_value=1e10,
                    allow_nan=False, allow_infinity=False).filter(lambda x: abs(x) > 1e-10)
unit = hst.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@hst.composite
def dd_pair(draw, max_size=8):
    """Two double-double arrays of one length, with nonzero low parts."""
    size = draw(hst.integers(1, max_size))

    def one():
        hi = np.array(draw(hst.lists(finite, min_size=size, max_size=size)))
        lo = hi * np.array(draw(hst.lists(unit, min_size=size, max_size=size))) * 2.0 ** -60
        return dd.DD(*dd.two_sum(hi, lo))

    return one(), one()


def to_mp(v):
    """Exact values of a double-double array as mpmath numbers."""
    return [mpmath.mpf(float(h)) + mpmath.mpf(float(lo))
            for h, lo in zip(np.atleast_1d(v.hi), np.atleast_1d(v.lo))]


def assert_close(value, reference, rel=1e-30):
    for got, want in zip(to_mp(value), reference):
        assert abs(got - want) <= rel * max(1, abs(want))


def test_two_sum_exact():
    s, e = dd.two_sum(1.0, 1e-20)
    assert s == 1.0 and e == 1e-20


def test_two_prod_exact():
    p, e = dd.two_prod(1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30)
    assert mpmath.mpf(p) + mpmath.mpf(e) == (mpmath.mpf(1) + mpmath.mpf(2) ** -30) * \
        (mpmath.mpf(1) - mpmath.mpf(2) ** -30)


@given(a=hst.lists(finite, min_size=1, max_size=8), b=hst.lists(finite, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_error_free_transformations_are_exact(a, b):
    size = min(len(a), len(b))
    a, b = np.array(a[:size]), np.array(b[:size])
    with mpmath.workdps(DPS):
        for (s, e), exact in ((dd.two_sum(a, b), [mpmath.mpf(x) + mpmath.mpf(y)
                                                  for x, y in zip(a, b)]),
                              (dd.two_prod(a, b), [mpmath.mpf(x) * mpmath.mpf(y)
                                                   for x, y in zip(a, b)])):
            assert [mpmath.mpf(float(u)) + mpmath.mpf(float(v))
                    for u, v in zip(s, e)] == exact


@given(pair=dd_pair())
@settings(max_examples=200, deadline=None)
def test_add_sub_accuracy(pair):
    x, y = pair
    with mpmath.workdps(DPS):
        assert_close(x + y, [u + v for u, v in zip(to_mp(x), to_mp(y))])
        assert_close(x - y, [u - v for u, v in zip(to_mp(x), to_mp(y))])


@given(pair=dd_pair())
@settings(max_examples=200, deadline=None)
def test_mul_accuracy(pair):
    x, y = pair
    with mpmath.workdps(DPS):
        assert_close(x * y, [u * v for u, v in zip(to_mp(x), to_mp(y))])


@given(pair=dd_pair())
@settings(max_examples=200, deadline=None)
def test_div_round_trip(pair):
    x, y = pair
    with mpmath.workdps(DPS):
        assert_close(x / y, [u / v for u, v in zip(to_mp(x), to_mp(y))])
        assert_close((x / y) * y, to_mp(x), rel=1e-29)


@given(pair=dd_pair(max_size=64))
@settings(max_examples=100, deadline=None)
def test_sum_and_dot_are_correctly_rounded(pair):
    """hi is the exact value rounded to double, and lo the exact remainder rounded."""
    x, y = pair
    with mpmath.workdps(400):          # enough digits to hold every sum exactly
        for got, exact in ((x.sum(), mpmath.fsum(to_mp(x))),
                           (dd.dot(x, y), mpmath.fsum(u * v for u, v in
                                                      zip(to_mp(x), to_mp(y))))):
            assert got.hi == float(exact)
            assert got.lo == float(exact - got.hi)


def test_dot_on_lists_is_the_dot_on_arrays():
    """The Levinson loop over a narrow band dots lists of floats, one two_prod
    at a time, and must round as the vector dot does: the same bits, or the
    same error from math.fsum where infinities of both signs meet."""
    rng = np.random.default_rng(11)
    special = [np.inf, -np.inf, np.nan]

    def vector(size):
        hi = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        lo = hi * rng.uniform(-1.0, 1.0, size) * 2.0 ** -54
        hi[rng.random(size) < 0.1] = special[rng.integers(3)]
        return dd.DD(hi, lo)

    def outcome(x, y):
        try:
            v = dd.dot(x, y)
        except (ValueError, OverflowError) as err:
            return type(err).__name__
        return np.float64(v.hi).tobytes(), np.float64(v.lo).tobytes()

    for trial in range(2000):
        x, y = vector(trial % 10), vector(trial % 10)
        with np.errstate(all="ignore"):
            arrays = outcome(x, y)
        lists = outcome(dd.DD(x.hi.tolist(), x.lo.tolist()), dd.DD(y.hi.tolist(), y.lo.tolist()))
        assert lists == arrays, trial


@given(pair=dd_pair(max_size=64))
@settings(max_examples=100, deadline=None)
def test_cumsum_matches_exact_prefix_sums(pair):
    """Signs are mixed: each prefix sum is within double-double rounding of the
    exact one, relative to the sum of the magnitudes it adds."""
    x, _ = pair
    with mpmath.workdps(400):
        exact = to_mp(x)
        for i, got in enumerate(to_mp(x.cumsum())):
            assert abs(got - mpmath.fsum(exact[:i + 1])) <= (
                1e-30 * mpmath.fsum(abs(v) for v in exact[:i + 1]))


def test_cumsum_of_a_prefix_is_a_bitwise_prefix():
    """The breakdown curve of the Levinson pass relies on this."""
    rng = np.random.default_rng(5)
    x = dd.DD(*dd.two_sum(rng.standard_normal(100), rng.standard_normal(100) * 1e-17))
    full = x.cumsum()
    for m in (1, 2, 3, 17, 63, 64, 65, 99):
        part = x[:m].cumsum()
        assert part.hi.tobytes() == full.hi[:m].tobytes()
        assert part.lo.tobytes() == full.lo[:m].tobytes()


def test_scalar_operands_broadcast():
    x = dd.DD(np.array([1.0, 3.0]), np.array([2.0 ** -60, -(2.0 ** -60)]))
    third = 1.0 / dd.DD(3.0, 0.0)
    with mpmath.workdps(DPS):
        assert_close(third * x, [v / 3 for v in to_mp(x)])
        assert_close(1.0 - x, [1 - v for v in to_mp(x)])
    assert float(third) == 1.0 / 3.0
    assert np.asarray(x).tolist() == [1.0, 3.0]


def test_indexing_and_assignment():
    x = dd.empty(3)
    x[0] = 1.0
    x[1:] = dd.DD(np.array([2.0, 4.0]), np.array([1e-20, 1e-21]))
    assert x.hi.tolist() == [1.0, 2.0, 4.0]
    assert x.lo.tolist() == [0.0, 1e-20, 1e-21]
    rev = x[::-1]
    assert rev.hi.tolist() == [4.0, 2.0, 1.0] and len(rev) == 3


def test_accumulation_beats_double():
    """Summing 1 + k*eps^2 terms keeps ~32 digits where double loses them."""
    acc = dd.DD(0.0, 0.0)
    tiny = dd.DD(1e-25, 0.0)
    for _ in range(1000):
        acc = acc + tiny
    acc = acc + 1.0
    with mpmath.workdps(DPS):
        assert_close(acc, [mpmath.mpf(1) + mpmath.mpf(1e-25) * 1000])
    terms = dd.DD(np.full(1001, 1e-25), np.zeros(1001))
    terms[0] = 1.0
    with mpmath.workdps(DPS):
        assert_close(terms.sum(), [mpmath.mpf(1) + mpmath.mpf(1e-25) * 1000])


def test_scalars_on_either_side():
    x = dd.DD(np.array([1.0, 3.0]), np.array([2.0 ** -60, -(2.0 ** -60)]))
    for left, right in ((2.5 * x, x * 2.5), (0.5 + x, x + 0.5)):
        assert left.hi.tolist() == right.hi.tolist() and left.lo.tolist() == right.lo.tolist()


def exact_dd(values):
    values = np.asarray(values, dtype=float)
    return dd.DD(values, np.zeros_like(values))


def test_exp_over_the_flat_zero_range():
    """exp(-lam^-a) and lam^-a = exp(-a ln lam) for lam in [cut, pi], a in [1.2, 2]."""
    x = np.concatenate((np.linspace(-110.0, 5.0, 401), [0.0, -1e-20, 1e-20]))
    with mpmath.workdps(DPS):
        assert_close(dd.exp(exact_dd(x)), [mpmath.exp(mpmath.mpf(v)) for v in x])
        shifted = dd.exp(dd.DD(*dd.two_sum(x, 2.0 ** -70)))
        assert_close(shifted, [mpmath.exp(mpmath.mpf(v) + mpmath.mpf(2) ** -70) for v in x])


def test_log_over_the_flat_zero_range():
    lam = np.concatenate((np.geomspace(1e-3, 1.0, 200), np.linspace(1.0, 3.2, 200)))
    with mpmath.workdps(DPS):
        assert_close(dd.log(exact_dd(lam)), [mpmath.log(mpmath.mpf(v)) for v in lam])
        assert_close(dd.log(dd.pi), [mpmath.log(mpmath.pi)])


def test_expm1_keeps_its_relative_accuracy_near_zero():
    x = np.array([1e-30, -1e-12, 1e-5, 0.3, -0.34, 0.35, 2.0, -40.0])
    with mpmath.workdps(DPS):
        want = [mpmath.expm1(mpmath.mpf(v)) for v in x]
        for got, w in zip(to_mp(dd.expm1(exact_dd(x))), want):
            assert abs(got / w - 1) < 1e-31


@pytest.mark.parametrize("a", [1e-3, 0.3, 1.0, 0.455 * np.pi, 1.66, 2.0, 3.1, np.pi - 1e-9])
def test_sin_cos_of_lag_multiples(a):
    """k a with k <= 4096 is formed exactly, then reduced by a three-part 2 pi."""
    k = np.arange(4097)
    sin, cos = dd.sincos(exact_dd(k) * a)
    with mpmath.workdps(DPS):
        angles = [j * mpmath.mpf(a) for j in range(4097)]
        for got, want in ((sin, map(mpmath.sin, angles)), (cos, map(mpmath.cos, angles))):
            assert max(abs(g - w) for g, w in zip(to_mp(got), want)) < 1e-31


@pytest.mark.parametrize("alpha", [-0.4, 0.3, 0.7312, 1.55, 1.9, 2.5])
def test_central_binomial(alpha):
    with mpmath.workdps(DPS):
        want = mpmath.binomial(2 * mpmath.mpf(alpha), mpmath.mpf(alpha))
        assert abs(to_mp(dd.central_binomial(alpha))[0] / want - 1) < 1e-31


@pytest.mark.parametrize("x", [0.1, 0.4, 1.0, 1.1, 1.6, 1.9, 2.0, 15.9, 16.0, 17.3, 40.0])
def test_gamma(x):
    with mpmath.workdps(DPS):
        assert abs(to_mp(dd.gamma(x))[0] / mpmath.gamma(mpmath.mpf(x)) - 1) < 1e-29


def test_central_binomial_is_the_rounded_integer_at_integers():
    for alpha in (0, 1, 7, 30, 50, 300):
        want = math.comb(2 * alpha, alpha)
        got = dd.central_binomial(float(alpha))
        assert (got.hi, got.lo) == (float(want), float(want - int(float(want))))


def test_gauss_legendre_nodes_and_weights():
    x, w = quadrature.dd_gl_nodes(24)
    with mpmath.workdps(DPS):
        ref = sorted(mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(
            4, mpmath.mp.prec))                      # degree 4: 3 * 2^3 = 24 nodes
        assert len(ref) == 24
        order = np.argsort(x.hi)
        assert_close(x[order], [node for node, _ in ref])
        assert_close(w[order], [weight for _, weight in ref])
