"""Compensated double-double arithmetic on (hi, lo) float pairs.

A value is represented as an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
giving roughly 32 significant decimal digits with the exponent range of a
double.  Only the operations the extended-precision Toeplitz solvers need are
provided; everything is a plain function on tuples to keep the inner loops
cheap.

Error-free transformations follow Dekker and Knuth (two_sum, split, two_prod);
the composite rules are the standard QD ones.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


ZERO = (0.0, 0.0)
ONE = (1.0, 0.0)


def from_float(a: float):
    return (float(a), 0.0)


def add(x, y):
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def neg(x):
    return (-x[0], -x[1])


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def div(x, y):
    q1 = x[0] / y[0]
    r = sub(x, mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = sub(r, mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return add((s, e), (q3, 0.0))

def to_float(x) -> float:
    return x[0] + x[1]
