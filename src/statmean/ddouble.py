"""Double-double arithmetic on (hi, lo) float arrays.

A value is the unevaluated sum hi + lo with |lo| <= ulp(hi)/2: about 32
significant digits with the exponent range of a double.  `DD` holds two numpy
arrays, or two floats for a scalar, and applies the QD rules of Hida, Li &
Bailey (2001) elementwise.  Its `sum` and `dot` are error-free before the last
rounding (Ogita, Rump & Oishi 2005): products are split exactly by two_prod,
and `math.fsum` adds the parts once for hi and once more for lo.
`np.asarray` and `float` round a value to double.  two_sum, split and
two_prod are Knuth's and Dekker's error-free transformations, for floats and
arrays alike; `grid_split` cuts whole vectors so that their dot products are
exact in plain double.

The module is an arithmetic in its own right, read under numpy's names by the
closed forms of `spectra`.  Its elementary functions follow the same paper:
`exp` and `expm1` reduce by ln 2 and 2^-10 before a Taylor series, `log` is
one Newton step on `exp`, `gamma` takes Stirling's series, and `sincos`
reduces mod 2 pi by a three-part 2 pi and then by quadrant.  Series
coefficients are exact rationals rounded once to double-double; the Bernoulli
numbers among them, `bernoulli`, also serve `spectra`'s Hurwitz zeta.
"""

from __future__ import annotations

import functools
import itertools
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


def grid_split(v, terms: int):
    """(v1, v2), v = v1 + v2 exactly, v1 on the grid 2^(e-b) with max|v| < 2^e
    and 2b + log2(terms) <= 53: sums of `terms` products of two v1 parts are
    exact (Ozaki, Ogita, Oishi & Rump 2012).  |v2| <= min(|v|, 2^-b max|v|)."""
    bits = (53 - (int(terms) - 1).bit_length()) // 2
    unit = np.ldexp(1.0, int(np.frexp(np.max(np.abs(v), initial=0.0))[1]) - bits)
    v1 = np.rint(v / unit) * unit
    return v1, v - v1


def _dd(v):
    return v if isinstance(v, DD) else DD(v, 0.0)


def _fsum(parts: list) -> DD:
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

    def reshape(self, *shape):
        return DD(self.hi.reshape(shape), self.lo.reshape(shape))

    def __add__(self, other):
        other = _dd(other)
        s, e = two_sum(self.hi, other.hi)
        t, f = two_sum(self.lo, other.lo)
        s, e = quick_two_sum(s, e + t)
        return DD(*quick_two_sum(s, e + f))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        # addition commutes bit for bit: two_sum returns the exact error
        return -self + other

    def __mul__(self, other):
        other = _dd(other)
        p, e = two_prod(self.hi, other.hi)
        return DD(*quick_two_sum(p, e + (self.hi * other.lo + self.lo * other.hi)))

    __rmul__ = __mul__

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
        return _fsum(np.concatenate((self.hi, self.lo)).tolist())

    def _scan(self, op) -> DD:
        """Running op-reductions by doubling strides; entry i is the same for any length > i."""
        out = self.copy()
        stride = 1
        while stride < len(out):
            out[stride:] = op(out[stride:], out[:-stride])
            stride *= 2
        return out

    def cumsum(self) -> DD:
        """Running sums x0, x0 + x1, ...: a prefix sum by doubling strides."""
        return self._scan(DD.__add__)

    def cumprod(self) -> DD:
        """Running products x0, x0 x1, ...: a prefix product by doubling strides."""
        return self._scan(DD.__mul__)


def empty(shape) -> DD:
    return DD(np.empty(shape), np.empty(shape))


def dot(x: DD, y: DD) -> DD:
    """sum_i x_i y_i from the two_prod parts of hi hi, hi lo, lo hi and lo lo,
    products before errors, summed by `_fsum`.  x and y hold arrays, or lists
    of floats that two_prod takes a pair at a time, which spares a short dot
    numpy's cost per call; the parts and their order are the same either way."""
    xs, ys = (x.hi, x.hi, x.lo, x.lo), (y.hi, y.lo, y.hi, y.lo)
    if isinstance(x.hi, np.ndarray):
        return _fsum(np.concatenate(two_prod(np.concatenate(xs), np.concatenate(ys))).tolist())
    pairs = list(map(two_prod, itertools.chain(*xs), itertools.chain(*ys)))
    return _fsum([p for p, _ in pairs] + [e for _, e in pairs])


def arange(*args) -> DD:
    k = np.arange(*args, dtype=float)
    return DD(k, np.zeros_like(k))


def exact(p: int, q: int = 1) -> DD:
    """The rational p/q rounded to double-double: int division rounds correctly."""
    hi = p / q
    a, b = hi.as_integer_ratio()
    return DD(hi, (p * b - a * q) / (q * b))


def _table(ratios) -> DD:
    parts = [exact(*r) for r in ratios]
    return DD(np.array([p.hi for p in parts]), np.array([p.lo for p in parts]))


def _poly(x, coeffs: DD) -> DD:
    """sum_i coeffs[i] x^i by Horner's rule."""
    out = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out = out * x + coeffs[i]
    return out


pi = DD(3.141592653589793, 1.2246467991473532e-16)
INV_SQRT_PI = DD(0.5641895835477563, 7.66772980658294e-18)
#: ln 2 and 2 pi, each the sum of three doubles to about 1e-49
_LN2 = (0.6931471805599453, 2.3190468138462996e-17, 5.707708438416212e-34)
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16, -5.989539619436679e-33)
#: expm1(r) / r, sin(t) / t and cos(t) as series in r and t^2, to ~1e-33 for
#: |r| <= ln(2) / 2^11 and |t| <= pi / 4
_EXPM1 = _table((1, math.factorial(i + 1)) for i in range(9))
_SIN = _table(((-1) ** i, math.factorial(2 * i + 1)) for i in range(15))
_COS = _table(((-1) ** i, math.factorial(2 * i)) for i in range(16))


def _reduce(x: DD, q, parts) -> DD:
    """x - q (sum of parts), the two leading products formed exactly."""
    return x - DD(*two_prod(q, parts[0])) - DD(*two_prod(q, parts[1])) - q * parts[2]


def _exp_parts(x: DD):
    """(s, m) with e^x = 2^m (1 + s): r = (x - m ln 2) / 2^10, s = expm1(r)
    by series, then ten squarings of 1 + s formed as s (s + 2)."""
    x = _dd(x)
    m = np.rint(x.hi / _LN2[0])
    r = _reduce(x, m, _LN2) * 2.0 ** -10
    s = r * _poly(r, _EXPM1)
    for _ in range(10):
        s = s * (s + 2.0)
    return s, m


def exp(x: DD) -> DD:
    """e^x = 2^m (1 + s)."""
    s, m = _exp_parts(x)
    s = s + 1.0
    return DD(np.ldexp(s.hi, m.astype(int)), np.ldexp(s.lo, m.astype(int)))


def expm1(x: DD) -> DD:
    """e^x - 1, relative to its own size as x -> 0: s itself where m = 0."""
    s, m = _exp_parts(x)
    e = exp(x) - 1.0
    return DD(np.where(m == 0, s.hi, e.hi), np.where(m == 0, s.lo, e.lo))


def log(x: DD) -> DD:
    """ln x, x > 0: one Newton step on exp from the double logarithm."""
    y = DD(np.log(_dd(x).hi), 0.0)
    return y + x * exp(-y) - 1.0


def sincos(x: DD) -> tuple[DD, DD]:
    """(sin x, cos x).  x is reduced mod 2 pi by exact products with the
    parts of 2 pi, then by a quadrant to |t| <= pi/4 for the series."""
    x = _dd(x)
    r = _reduce(x, np.rint(x.hi / _TWO_PI[0]), _TWO_PI)
    j = np.rint(r.hi / (0.5 * pi.hi))
    t = r - pi * (0.5 * j)
    u = t * t
    s, c = t * _poly(u, _SIN), _poly(u, _COS)
    odd = j % 2 == 1
    sign_s, sign_c = np.where(j % 4 >= 2, -1.0, 1.0), np.where((j + 1) % 4 >= 2, -1.0, 1.0)
    return (DD(np.where(odd, c.hi, s.hi) * sign_s, np.where(odd, c.lo, s.lo) * sign_s),
            DD(np.where(odd, s.hi, c.hi) * sign_c, np.where(odd, s.lo, c.lo) * sign_c))


def sin(x: DD) -> DD:
    return sincos(x)[0]


def cos(x: DD) -> DD:
    return sincos(x)[1]


def read_only(v):
    """v, an array or a double-double pair, with its write flag cleared."""
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=1)
def bernoulli() -> tuple:
    """B_2m, m = 1..26, as exact fractions, from sum_{j=1..m} C(2m+1, 2j) B_2j
    = m - 1/2; the import of fractions is left to the first call."""
    from fractions import Fraction
    b = []
    for m in range(1, 27):
        head = sum(math.comb(2 * m + 1, 2 * j + 2) * v for j, v in enumerate(b))
        b.append((Fraction(2 * m - 1, 2) - head) / (2 * m + 1))
    return tuple(b)


@functools.lru_cache(maxsize=2)
def _gamma_series(ratio: bool) -> DD:
    """c_m, m = 1..26, of two series in x^(1-2m), each to ~1e-33 past x = 12:
    ln(Gamma(x + 1/2) / Gamma(x + 1)) + ln(x) / 2 with c_m = (2^(1-2m) - 2)
    B_2m / ((2m-1) 2m) if `ratio`, else Stirling's ln Gamma(x) - (x - 1/2) ln x
    + x - ln(2 pi) / 2 with c_m = B_2m / ((2m-1) 2m)."""
    coeffs = []
    for m, b in enumerate(bernoulli(), 1):
        c = (b / 2 ** (2 * m - 1) - 2 * b if ratio else b) / ((2 * m - 1) * 2 * m)
        coeffs.append((c.numerator, c.denominator))
    return read_only(_table(coeffs))


def gamma(x: float) -> DD:
    """Gamma(x) of a double x > 0: Stirling's series at y = x + s >= 16, where
    26 terms reach ~1e-38, and Gamma(x) = Gamma(y) / prod_{j<s} (x + j), each
    x + j formed exactly by two_sum."""
    j = np.arange(max(0, math.ceil(16.0 - x)), dtype=float)
    y = DD(*two_sum(x, float(len(j))))
    inv = 1.0 / y
    lead = exp((y - 0.5) * log(y) - y + 0.5 * log(pi * 2.0)
               + inv * _poly(inv * inv, _gamma_series(False)))
    return lead / DD(*two_sum(x, j)).cumprod()[-1] if len(j) else lead


def central_binomial(alpha: float) -> DD:
    """binom(2a, a) = 4^a Gamma(a + 1/2) / (sqrt(pi) Gamma(a + 1)), a > -1/2.

    Exact at integers up to 512.  Otherwise the gamma ratio is taken at
    x = a + s >= 12 by its Bernoulli series, and brought back by the factors
    (a + j + 1) / (a + j + 1/2), j < s, whose terms two_sum forms exactly.
    """
    if float(alpha).is_integer() and alpha <= 512:
        return exact(math.comb(int(2 * alpha), int(alpha)))
    shift = max(0, math.ceil(12.0 - alpha))
    x = DD(*two_sum(alpha, float(shift)))
    inv = 1.0 / x
    # 4^a enters the exponent as 2a ln 2, with ln 2 in three parts
    lead = exp(_reduce(inv * _poly(inv * inv, _gamma_series(True)) - 0.5 * log(x),
                       -2.0 * alpha, _LN2))
    j = np.arange(shift, dtype=float)
    factors = DD(*two_sum(alpha, j + 1.0)) / DD(*two_sum(alpha, j + 0.5))
    lead = lead * INV_SQRT_PI
    return DD(np.append(lead.hi, factors.hi), np.append(lead.lo, factors.lo)).cumprod()[-1]
