"""Compensated pair arithmetic against an mpmath oracle."""

from __future__ import annotations

import math

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as hst

from statmean import ddouble as dd

mpmath.mp.dps = 50

finite = hst.floats(min_value=-1e10, max_value=1e10,
                    allow_nan=False, allow_infinity=False).filter(lambda x: abs(x) > 1e-10)


def to_mp(x):
    return mpmath.mpf(x[0]) + mpmath.mpf(x[1])


def assert_close(pair, reference, rel=1e-30):
    err = abs(to_mp(pair) - reference)
    assert err <= rel * max(1, abs(reference))


def test_two_sum_exact():
    s, e = dd.two_sum(1.0, 1e-20)
    assert s == 1.0 and e == 1e-20


def test_two_prod_exact():
    p, e = dd.two_prod(1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30)
    assert mpmath.mpf(p) + mpmath.mpf(e) == (mpmath.mpf(1) + mpmath.mpf(2) ** -30) * \
        (mpmath.mpf(1) - mpmath.mpf(2) ** -30)


@given(a=finite, b=finite)
@settings(max_examples=200, deadline=None)
def test_mul_accuracy(a, b):
    x, y = dd.from_float(a), dd.from_float(b)
    assert_close(dd.mul(x, y), mpmath.mpf(a) * mpmath.mpf(b))


@given(a=finite, b=finite)
@settings(max_examples=200, deadline=None)
def test_div_round_trip(a, b):
    x, y = dd.from_float(a), dd.from_float(b)
    q = dd.div(x, y)
    assert_close(dd.mul(q, y), mpmath.mpf(a), rel=1e-29)


def test_accumulation_beats_double():
    """Summing 1 + k*eps^2 terms keeps ~32 digits where double loses them."""
    acc = dd.ZERO
    tiny = dd.from_float(1e-25)
    for _ in range(1000):
        acc = dd.add(acc, tiny)
    acc = dd.add(acc, dd.ONE)
    assert_close(acc, mpmath.mpf(1) + mpmath.mpf(1e-25) * 1000)
