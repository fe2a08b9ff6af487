"""Double-double arithmetic on (hi, lo) float arrays.

A value is the unevaluated sum hi + lo with |lo| <= ulp(hi)/2: about 32
significant digits with the exponent range of a double.  `DD` holds two numpy
arrays, or two floats for a scalar, and applies the QD rules of Hida, Li &
Bailey (2001) elementwise.  Its `sum` and `dot` are error-free before the last
rounding (Ogita, Rump & Oishi 2005): products are split exactly by two_prod,
and `math.fsum` adds the parts once for hi and once more for lo.
`np.asarray` and `float` round a value to double.  two_sum, split and
two_prod are Knuth's and Dekker's error-free transformations, for floats and
arrays alike.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd(v):
    return v if isinstance(v, DD) else DD(v, 0.0)


def _fsum(parts) -> DD:
    parts = parts.tolist()
    hi = math.fsum(parts)
    parts.append(-hi)
    return DD(hi, math.fsum(parts) if math.isfinite(hi) else 0.0)


class DD:
    """A double-double array or scalar."""

    __slots__ = ("hi", "lo")
    __array_ufunc__ = None          # numpy defers mixed operations to DD

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, index):
        return DD(self.hi[index], self.lo[index])

    def __setitem__(self, index, value):
        value = _dd(value)
        self.hi[index], self.lo[index] = value.hi, value.lo

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.hi + self.lo, dtype=dtype)

    def __float__(self):
        return float(self.hi + self.lo)

    def copy(self):
        return DD(self.hi.copy(), self.lo.copy())

    def setflags(self, write):
        self.hi.setflags(write=write)
        self.lo.setflags(write=write)

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        other = _dd(other)
        s, e = two_sum(self.hi, other.hi)
        t, f = two_sum(self.lo, other.lo)
        s, e = quick_two_sum(s, e + t)
        return DD(*quick_two_sum(s, e + f))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        # addition commutes bit for bit: two_sum returns the exact error
        return -self + other

    def __mul__(self, other):
        other = _dd(other)
        p, e = two_prod(self.hi, other.hi)
        return DD(*quick_two_sum(p, e + (self.hi * other.lo + self.lo * other.hi)))

    def __truediv__(self, other):
        other = _dd(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        return DD(*quick_two_sum(q1, q2)) + r.hi / other.hi

    def __rtruediv__(self, other):
        return DD(other, 0.0) / self

    def sum(self) -> DD:
        return _fsum(np.concatenate((self.hi, self.lo)))

    def cumprod(self) -> DD:
        """Running products x0, x0 x1, ...: a prefix product by doubling strides."""
        out = self.copy()
        stride = 1
        while stride < len(out):
            out[stride:] = out[stride:] * out[:-stride]
            stride *= 2
        return out


def empty(n: int) -> DD:
    return DD(np.empty(n), np.empty(n))


def dot(x: DD, y: DD) -> DD:
    p, e = two_prod(np.concatenate((x.hi, x.hi, x.lo, x.lo)),
                    np.concatenate((y.hi, y.lo, y.hi, y.lo)))
    return _fsum(np.concatenate((p, e)))
