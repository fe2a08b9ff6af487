"""Toeplitz solves: optimal weights, variance curves, quadratic forms."""

from __future__ import annotations

import copy
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

import statmean as st
from statmean import ddouble as dd
from statmean import toeplitz
from statmean.opuc import christoffel_curve
from statmean.toeplitz import (INVERSE_DENSITY_CALIBRATION, _levinson, _residual,
                               reflection_coefficients)
from tests.conftest import dense_blue, mp_dense_blue

TWO_PI = 2.0 * math.pi


class TestBlueSolve:
    def test_power_at_origin_order_two(self):
        weights, variance = st.blue_solve(st.system_for(st.PowerAtOrigin(1.0), 2))
        assert weights.coefficients == pytest.approx([0.3, 0.4, 0.3], abs=1e-13)
        assert variance == pytest.approx(0.2, rel=1e-13)
        assert weights.coefficients.sum() == pytest.approx(1.0, abs=1e-14)

    def test_white_noise_uniform(self, white_noise):
        for n in (0, 1, 9, 31):
            weights, variance = st.blue_solve(st.system_for(white_noise, n))
            assert np.allclose(weights.coefficients, 1.0 / (n + 1))
            assert variance == pytest.approx(1.0 / (n + 1), rel=1e-13)

    def test_ma1(self, ma1):
        weights, variance = st.blue_solve(st.system_for(ma1, 1))
        assert weights.coefficients == pytest.approx([0.5, 0.5])
        assert variance == pytest.approx(0.375, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, -0.25, 0.25, 1.0, 2.0])
    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_against_dense_oracle(self, alpha, n):
        cov = st.covariance_sequence(st.PowerAtOrigin(alpha), n)
        weights, variance = st.blue_solve(st.ToeplitzSystem(cov))
        wref, vref = dense_blue(cov.values, n)
        assert variance == pytest.approx(vref, rel=1e-10)
        assert np.max(np.abs(weights.coefficients - wref)) < 1e-10

    def test_system_is_frozen_and_left_unchanged(self, ma1):
        system = st.system_for(ma1, 16)
        before = copy.deepcopy(system)
        with pytest.raises(AttributeError):
            system.precision = "dd"
        st.blue_solve(system)
        assert vars(system).keys() == vars(before).keys()
        assert system.precision == before.precision
        assert system.covariance.provenance == before.covariance.provenance
        assert _bits(system.covariance.values) == _bits(before.covariance.values)

    def test_one_precision_check_for_both_entry_points(self, ma1):
        cov = st.covariance_sequence(ma1, 8)
        for precision, message in (("quad", "unknown precision"), ("dd", "dd covariance")):
            with pytest.raises(st.ValidationError, match=message):
                st.blue_variance_curve(cov, precision=precision)
            with pytest.raises(st.ValidationError, match=message):
                st.blue_solve(st.ToeplitzSystem(cov, precision=precision))

    def test_near_singular_raises_with_advice(self):
        cov = st.covariance_sequence(st.ArcSupported(math.pi / 2, 1.0 / TWO_PI), 40)
        with pytest.raises(st.NearSingularError) as err:
            st.blue_solve(st.ToeplitzSystem(cov))
        assert err.value.order > 4
        assert "double-double" in str(err.value)

    def test_dd_path_reaches_further(self):
        model = st.ArcSupported(math.pi / 2, 1.0 / TWO_PI)
        cov = st.covariance_sequence(model, 30, precision="dd")
        weights, variance = st.blue_solve(st.ToeplitzSystem(cov, precision="dd"))
        assert variance > 0
        assert weights.coefficients.sum() == pytest.approx(1.0, abs=1e-13)
        curve, _ = mp_dense_blue(cov)
        assert variance == pytest.approx(float(curve[30]), rel=1e-9)


def _mp(v):
    """A double-double value as an mpmath number, exactly."""
    return mpmath.mpf(float(v.hi)) + mpmath.mpf(float(v.lo))


class TestExtendedAgainstMpmath:
    """The double-double pass against a 50-digit dense solve of R x = 1."""

    CASES = {"power_law_1": (st.PowerAtOrigin(1.0), 64, 1e-24),
             "power_law_2": (st.PowerAtOrigin(2.0), 64, 1e-24),
             "flat_zero_1.5": (st.FlatZero(1.5), 48, 1e-24),
             # variance 7.3e-24: the Toeplitz condition spends most of the dd digits
             "arc_pi/2": (st.ArcSupported(math.pi / 2, 1.0 / TWO_PI), 30, 1e-9)}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_curve_and_weights(self, name):
        model, n, tol = self.CASES[name]
        cov = st.covariance_sequence(model, n, precision="dd")
        curve_ref, weights_ref = mp_dense_blue(cov)
        entry = toeplitz.levinson_pass(cov.values, cov.lo)
        total = entry.x.sum()
        with mpmath.workdps(50):
            curve_err = max(abs(_mp(entry.curve[m]) / curve_ref[m] - 1) for m in range(n + 1))
            weights_err = max(abs(_mp(entry.x[j] / total) - w)
                              for j, w in enumerate(weights_ref))
        assert curve_err <= tol
        assert weights_err <= tol * max(abs(w) for w in weights_ref)
        # the public results are those values rounded to double
        weights, variance = st.blue_solve(st.ToeplitzSystem(cov, precision="dd"))
        public = st.blue_variance_curve(cov, precision="dd")
        assert variance == pytest.approx(float(curve_ref[n]), rel=tol + 2e-16)
        assert public == pytest.approx([float(v) for v in curve_ref], rel=tol + 2e-16)
        assert np.max(np.abs(weights.coefficients - [float(w) for w in weights_ref])) <= (
            (tol + 1e-14) * max(abs(w) for w in weights_ref))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _clear():
    """Empty the caches of the pass and of its refined solution."""
    toeplitz._pass.cache_clear()
    toeplitz._refined.cache_clear()


class TestLevinsonMemo:
    @pytest.fixture
    def cov(self):
        return st.covariance_sequence(st.FgnDensity(0.8), 300)

    def test_hit_is_bit_identical_to_cold_call(self, cov):
        _clear()
        w_cold, v_cold = st.blue_solve(st.ToeplitzSystem(cov))
        _clear()
        curve_cold = st.blue_variance_curve(cov)
        # keyed on the values, not on the object: an equal copy hits
        same = st.CovarianceSequence(cov.values.copy(), cov.provenance)
        for _ in range(2):           # first refines on the cached pass, then all hit
            w_hit, v_hit = st.blue_solve(st.ToeplitzSystem(same))
            assert _bits(w_hit.coefficients) == _bits(w_cold.coefficients)
            assert _bits(v_hit) == _bits(v_cold)
        assert _bits(st.blue_variance_curve(same)) == _bits(curve_cold)

    def test_returned_arrays_are_fresh(self, cov):
        weights, _ = st.blue_solve(st.ToeplitzSystem(cov))
        curve = st.blue_variance_curve(cov)
        refl = reflection_coefficients(cov.values)
        kept = [a.copy() for a in (weights.coefficients, curve, refl)]
        for a in (curve, refl):
            a[:] = 0.0
        # weights are a read-only copy, so no caller can write through them
        assert not weights.coefficients.flags.writeable
        again = (st.blue_solve(st.ToeplitzSystem(cov))[0].coefficients,
                 st.blue_variance_curve(cov), reflection_coefficients(cov.values))
        for old, new in zip(kept, again):
            assert _bits(new) == _bits(old)
        entry = toeplitz.levinson_pass(cov.values)
        refined = toeplitz._refined(cov.values.tobytes(), None)
        for a in (entry.x, entry.refl, entry.curve, refined):
            assert not a.flags.writeable

    def test_dd_pass_is_memoised_apart_from_the_double_one(self, monkeypatch):
        calls = []
        kernel = toeplitz._levinson
        monkeypatch.setattr(toeplitz, "_levinson", lambda *a: calls.append(a) or kernel(*a))
        _clear()
        cov = st.covariance_sequence(st.PowerAtOrigin(1.0), 64, precision="dd")
        curve = st.blue_variance_curve(cov, precision="dd")
        st.blue_solve(st.ToeplitzSystem(cov, precision="dd"))
        assert _bits(st.blue_variance_curve(cov, precision="dd")) == _bits(curve)
        assert len(calls) == 1
        st.blue_variance_curve(cov)          # double, on the same hi parts
        assert len(calls) == 2

    def test_memo_stays_at_its_bound(self):
        for i in range(50):
            reflection_coefficients(np.array([1.0, 0.5 * i / 50, 0.1]))
        info = toeplitz._pass.cache_info()
        assert info.currsize == info.maxsize

    def test_breakdown_raised_on_every_call(self):
        cov = st.covariance_sequence(st.ArcSupported(math.pi / 2, 1.0 / TWO_PI), 40)
        for call in [lambda: st.blue_solve(st.ToeplitzSystem(cov)),
                     lambda: st.blue_variance_curve(cov)] * 3:
            misses = toeplitz._pass.cache_info().misses
            with pytest.raises(st.NearSingularError):
                call()
            assert toeplitz._pass.cache_info().misses == misses + 1

    def test_threads_agree_while_evicting(self):
        # more sequences than the memo holds and more threads than cores, with
        # frequent switches, so lookups, refinements and evictions interleave
        maxsize = toeplitz._pass.cache_info().maxsize
        covs = [st.covariance_sequence(st.PowerAtOrigin(-0.3 + 0.1 * i), 120)
                for i in range(maxsize + 4)]
        expected = [_bits(st.blue_solve(st.ToeplitzSystem(c))[0].coefficients) for c in covs]
        _clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda c: _bits(
                    st.blue_solve(st.ToeplitzSystem(c))[0].coefficients), covs[i % len(covs)])
                           for i in range(4 * len(covs))]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[i % len(covs)] for i in range(4 * len(covs))]
        assert toeplitz._pass.cache_info().currsize == maxsize


class TestRefinementResidual:
    MODELS = {"power_law_-0.4": st.PowerAtOrigin(-0.4),
              "power_law_1.9": st.PowerAtOrigin(1.9),
              "fgn_0.8": st.FgnDensity(0.8),
              "ar1_0.7": st.Arma(ma=(1.0,), ar=(1.0, -0.7))}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_dense_formula_bit_for_bit(self, name):
        """The residual's leading term R1 x1, on the split parts, is exact: the
        structured correlation, the dense product and the rationals agree.  x
        is skewed, as the solution is symmetric and hides a reversed row order."""
        values = st.covariance_sequence(self.MODELS[name], 1024).values
        for n in (1, 2, 17, 256, 1024):
            r = values[:n + 1]
            r1, _ = dd.grid_split(r, n + 1)
            x1, _ = dd.grid_split(_levinson(r)[0] * np.linspace(1.0, 2.0, n + 1), n + 1)
            idx = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
            dense = r1[idx] @ x1
            structured = toeplitz._correlate(r1, x1)
            assert structured.tobytes() == dense.tobytes(), n
            if n <= 17:
                exact = [sum(Fraction(r1[abs(i - j)]) * Fraction(x1[j]) for j in range(n + 1))
                         for i in range(n + 1)]
                assert [Fraction(v) for v in structured] == exact, n

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_within_2_to_the_minus_64_of_exact_rationals(self, name):
        """Per row, against sum_j |r(i-j) x_j|: the platform's long double
        alone would be 2^-64 at best, and it is plain double on some."""
        cov = st.covariance_sequence(self.MODELS[name], 256)
        for n in (1, 2, 17, 256):
            r = cov.values[:n + 1]
            x = _levinson(r)[0]
            lo = r * 2.0 ** -55 if cov.lo is None else cov.lo[:n + 1]
            rf, xf = [Fraction(v) for v in r], [Fraction(v) for v in x]
            for low in (None, lo):
                lf = [Fraction(0)] * (n + 1) if low is None else [Fraction(v) for v in low]
                got = _residual(r, x, low)
                for i in range(n + 1):
                    exact = 1 - sum((rf[abs(i - j)] + lf[abs(i - j)]) * xf[j]
                                    for j in range(n + 1))
                    scale = sum(abs(rf[abs(i - j)] * xf[j]) for j in range(n + 1))
                    got_i = Fraction(*got[i].as_integer_ratio())
                    assert abs(got_i - exact) <= scale * Fraction(1, 2 ** 64), (n, i)

    def test_blue_solve_peak_memory_is_linear(self):
        cov = st.covariance_sequence(st.PowerAtOrigin(0.3), 4096)
        _clear()
        tracemalloc.start()
        try:
            st.blue_solve(st.ToeplitzSystem(cov))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestPlatformLongDouble:
    """Results do not depend on the platform's long double: with it aliased to
    double, as on Windows and Apple-silicon macOS, the bytes are the same."""

    SCRIPT = """
import sys
import numpy
if sys.argv[1] == "double":
    numpy.longdouble = numpy.float64
import statmean as st
out = []
for n in (1024, 4096):
    cov = st.covariance_sequence(st.PowerAtOrigin(1.9), n)
    weights, variance = st.blue_solve(st.ToeplitzSystem(cov))
    out += [weights.coefficients.tobytes().hex(), numpy.float64(variance).tobytes().hex()]
    for w in (weights, st.parabolic_weights(n)):
        for model in (st.PowerAtOrigin(2.0), st.PowerAtOrigin(1.9)):
            value = st.quadratic_form(w, st.covariance_sequence(model, n))
            out.append(numpy.float64(value).tobytes().hex())
print(" ".join(out))
"""

    def test_same_bytes_with_long_double_as_double(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(st.__file__)))
        runs = [subprocess.run([sys.executable, "-c", self.SCRIPT, mode], capture_output=True,
                               text=True, env=env, check=True, timeout=300).stdout
                for mode in ("native", "double")]
        assert runs[0] and runs[0] == runs[1]


class TestVarianceCurve:
    def test_monotone_nonincreasing(self, ma1, ar1):
        for measure in (ma1, ar1, st.PowerAtOrigin(0.25), st.FgnDensity(0.75)):
            curve = st.blue_variance_curve(st.covariance_sequence(measure, 64))
            assert np.all(np.diff(curve) <= 1e-14)

    def test_monotone_in_density(self):
        base = st.Arma((1.0, -0.5))
        small = st.blue_variance_curve(st.covariance_sequence(base, 32))
        big = st.blue_variance_curve(st.covariance_sequence(st.Scaled(base, 1.3), 32))
        assert np.all(small <= big + 1e-12)
        f025 = st.blue_variance_curve(st.covariance_sequence(st.PowerAtOrigin(0.25), 32))
        f025_lifted = st.blue_variance_curve(
            st.covariance_sequence(st.Product(st.PowerAtOrigin(0.25),
                                              st.WhiteNoise(1.1 * TWO_PI / TWO_PI)), 32))
        assert np.all(f025 <= f025_lifted + 1e-12)

    def test_matches_per_order_solves(self, ar1):
        cov = st.covariance_sequence(ar1, 24)
        curve = st.blue_variance_curve(cov)
        for n in (0, 5, 17, 24):
            _, v = dense_blue(cov.values, n)
            assert curve[n] == pytest.approx(v, rel=1e-12)


def _random_sequence(seed, n):
    """Covariances of a few random cosines over a white-noise floor, so R is
    positive definite and well conditioned (condition numbers near 30)."""
    rng = np.random.default_rng(seed)
    angles, masses = rng.uniform(0.0, math.pi, 6), rng.uniform(0.1, 1.0, 6)
    r = np.cos(np.outer(np.arange(n + 1), angles)) @ masses
    r[0] += 0.5
    return r


def _dense_window_pass(r):
    """The double-double recursion with every dot over all m lags, exact zeros
    included, as the kernel would run without its band cut: (refl, errors, a)."""
    n = len(r) - 1
    a, refl, errors = dd.empty(n + 1), dd.empty(n), dd.empty(n + 1)
    a[0] = 1.0
    e = errors[0] = r[0]
    for m in range(1, n + 1):
        k = -dd.dot(a[:m], r[m:0:-1]) / e
        refl[m - 1] = k
        a[m] = 0.0
        a[:m + 1] += k * a[:m + 1][::-1].copy()
        e *= 1.0 - k * k
        errors[m] = e
    return refl, errors, a


def _christoffel_darboux(refl, errors, a):
    """x and the curve from a pass's outputs: x = (P_n(1) / e_n) cumsum(a_j -
    a_{n+1-j}), P_j(1) and the curve by the kernel's own helper."""
    p, curve = toeplitz._at_one(refl, errors)
    d = a.copy()
    d[1:] -= a[:0:-1]
    return (p[-1] / errors[-1]) * d.cumsum(), curve


class TestOnesPass:
    """The all-ones pass steps by P_m(1) / e_m with P_m(1) = prod_{j<=m} (1 + k_j),
    where a general right-hand side takes eta_m = 1 - x_{m-1} . r(m..1)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_eta_is_the_predictor_at_one_in_double(self, seed):
        r = _random_sequence(seed, 24)
        _, refl, errors, _, _ = _levinson(r)
        p = np.cumprod(np.append(1.0, 1.0 + refl))
        for m in range(1, len(r)):
            prev = scipy.linalg.solve(scipy.linalg.toeplitz(r[:m]), np.ones(m))
            assert 1.0 - prev @ r[m:0:-1] == pytest.approx(p[m], rel=1e-11)
            full = scipy.linalg.solve(scipy.linalg.toeplitz(r[:m + 1]), np.ones(m + 1))
            assert full[m] == pytest.approx(p[m] / errors[m], rel=1e-11)

    @pytest.mark.parametrize("seed", range(2))
    def test_eta_is_the_predictor_at_one_in_dd(self, seed):
        r = _random_sequence(seed, 12)
        lo = r * 2.0 ** -60                   # exact values with nonzero low parts
        _, refl, errors, _, _ = _levinson(dd.DD(r, lo))
        p = (1.0 + refl).cumprod()
        with mpmath.workdps(50):
            exact = [mpmath.mpf(h) + mpmath.mpf(v) for h, v in zip(r, lo)]

            def solve(m):
                rows = [[exact[abs(i - j)] for j in range(m + 1)] for i in range(m + 1)]
                return mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([1] * (m + 1)))

            for m in range(1, len(r)):
                prev = solve(m - 1)
                eta = 1 - mpmath.fsum(prev[j] * exact[m - j] for j in range(m))
                assert abs(_mp(p[m - 1]) / eta - 1) < 1e-28
                assert abs(_mp(p[m - 1] / errors[m]) / solve(m)[m] - 1) < 1e-28

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [0, 1, 12, 300])
    def test_gohberg_semencul_is_the_inverse(self, seed, n):
        r = _random_sequence(seed, n)
        _, _, errors, _, a = _levinson(r)
        b = np.random.default_rng(seed).normal(size=n + 1)
        want = scipy.linalg.solve(scipy.linalg.toeplitz(r), b)
        got = toeplitz._gohberg_semencul(a, errors[-1], b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    CUT = {"ma2": (st.Arma(ma=(1.0, -0.5, 0.3)), 40),
           "power_law_1": (st.PowerAtOrigin(1.0), 64),
           "power_law_2": (st.PowerAtOrigin(2.0), 64),
           "white_noise": (st.WhiteNoise(0.3), 16)}

    @pytest.mark.parametrize("name", sorted(CUT) + ["interior_zero"])
    def test_band_cut_is_bitwise_neutral_in_dd(self, name):
        if name == "interior_zero":      # r(2) = 0 inside the band, r(k > 3) = 0 past it
            hi = np.zeros(33)
            hi[:4] = [1.0, 0.3, 0.0, 0.15]
            r = dd.DD(hi, hi * 2.0 ** -58)
        else:
            model, n = self.CUT[name]
            cov = st.covariance_sequence(model, n, precision="dd")
            r = dd.DD(cov.values, cov.lo)
            assert np.flatnonzero(cov.values)[-1] < n       # the cut skips something
        x, refl, errors, curve, a = _levinson(r)
        ref = _dense_window_pass(r)
        for got, want in zip((refl, errors, a, x, curve), ref + _christoffel_darboux(*ref)):
            assert got.hi.tobytes() == want.hi.tobytes()
            assert got.lo.tobytes() == want.lo.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [0, 1, 12, 300])
    def test_christoffel_darboux_solves_in_double(self, seed, n):
        r = _random_sequence(seed, n)
        x = _levinson(r)[0]
        want = scipy.linalg.solve(scipy.linalg.toeplitz(r), np.ones(n + 1))
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [0, 1, 12, 40])
    def test_christoffel_darboux_solves_in_dd(self, seed, n):
        r = _random_sequence(seed, n)
        lo = r * 2.0 ** -60                   # exact values with nonzero low parts
        x = _levinson(dd.DD(r, lo))[0]
        with mpmath.workdps(50):
            exact = [mpmath.mpf(h) + mpmath.mpf(v) for h, v in zip(r, lo)]
            rows = [[exact[abs(i - j)] for j in range(n + 1)] for i in range(n + 1)]
            want = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([1] * (n + 1)))
            scale = max(abs(w) for w in want)
            assert max(abs(_mp(x[j]) - want[j]) for j in range(n + 1)) <= 1e-30 * scale

    @pytest.mark.parametrize("extended", [False, True])
    def test_breakdown_carries_the_curve_below_its_order(self, extended):
        cov = st.covariance_sequence(st.ArcSupported(math.pi / 2, 1.0 / TWO_PI), 60,
                                     precision="dd")
        r = dd.DD(cov.values, cov.lo) if extended else cov.values
        with pytest.raises(st.NearSingularError) as info:
            _levinson(r)
        m = info.value.order
        assert m > 4 and info.value.extended == extended
        below = _levinson(r[:m])[3]
        assert info.value.curve.tobytes() == np.array(below, dtype=float).tobytes()

    def test_curve_out_of_range_is_refused_without_warnings(self):
        """1 / r(0) overflows at a subnormal r(0): the double-double curve is not
        finite, and the pass refuses it before any numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(st.NearSingularError, match="variance loss at order 0") as info:
                _levinson(dd.DD(np.array([1e-310, 0.0, 0.0]), np.zeros(3)))
            x, _, _, curve, _ = _levinson(np.array([1e-310, 0.0, 0.0]))
        assert info.value.extended and info.value.order == 0
        assert np.all(np.isinf(x)) and np.all(curve == 0.0)    # left to its callers

    def test_double_curve_out_of_range_is_refused_by_its_reader(self):
        """The double pass leaves a curve that reads 0 at a subnormal r(0) to
        its callers: the public reader refuses it, with no numpy warning, and
        carries the orders below the first 0."""
        cov = st.covariance_sequence(st.WhiteNoise(1e-311), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(st.NearSingularError,
                               match="^variance out of double range at order 0$") as info:
                st.blue_variance_curve(cov)
        assert info.value.order == 0 and len(info.value.curve) == 0
        assert not info.value.extended and info.value.reflections is None

    @pytest.mark.parametrize("measure", [st.PowerAtOrigin(1.37), st.FgnDensity(0.8),
                                         st.Arma(ma=(1.0,), ar=(1.0, -0.7))])
    def test_curve_is_the_christoffel_curve_at_one(self, measure):
        curve = st.blue_variance_curve(st.covariance_sequence(measure, 128))
        kernel = christoffel_curve(st.szego_recursion(measure, 128, probes=(1.0,)), 1.0)
        assert np.max(np.abs(kernel / curve - 1.0)) <= 1e-13


class TestQuadraticForm:
    def test_uniform_weights_f1(self):
        cov = st.covariance_sequence(st.PowerAtOrigin(1.0), 2)
        value = st.quadratic_form(st.lse_weights(2), cov)
        assert value == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_blue_weights_reproduce_variance(self):
        system = st.system_for(st.PowerAtOrigin(1.0), 2)
        weights, variance = st.blue_solve(system)
        assert st.quadratic_form(weights, system.covariance) == pytest.approx(variance, rel=1e-12)

    def test_white_noise_is_sum_of_squares(self, white_noise):
        cov = st.covariance_sequence(white_noise, 5)
        rng = np.random.default_rng(7)
        c = rng.normal(size=6)
        c /= c.sum()
        from statmean.estimators import EstimatorWeights
        w = EstimatorWeights(c)
        assert st.quadratic_form(w, cov) == pytest.approx(float(np.dot(c, c)), rel=1e-12)

    def test_blue_variance_equals_quadratic_form_everywhere(self, ar1):
        for measure in (ar1, st.FgnDensity(0.7), st.PowerAtOrigin(-0.25)):
            system = st.system_for(measure, 24)
            weights, variance = st.blue_solve(system)
            assert st.quadratic_form(weights, system.covariance) == pytest.approx(
                variance, rel=1e-12)

    @pytest.mark.parametrize("measure", [st.PowerAtOrigin(2.0), st.Arma(ma=(1.0, -1.0))],
                             ids=["power_law_2", "ma1_unit_root"])
    @pytest.mark.parametrize("estimator", ["parabolic", "blue"])
    def test_short_band_against_exact_rationals(self, measure, estimator):
        n = 4096
        cov = st.covariance_sequence(measure, n)
        weights = (st.parabolic_weights(n) if estimator == "parabolic"
                   else st.blue_solve(st.ToeplitzSystem(cov))[0])
        c = [Fraction(v) for v in weights.coefficients]
        lags = np.flatnonzero(cov.values)[-1] + 1
        assert lags <= 8                     # the short-band branch
        exact = sum((1 if t == 0 else 2) * Fraction(cov.values[t])
                    * sum(c[k] * c[k + t] for k in range(n + 1 - t)) for t in range(lags))
        assert abs(Fraction(st.quadratic_form(weights, cov)) / exact - 1) < 1e-9

    def test_fast_length_matches_scipy(self):
        from scipy.fft import next_fast_len
        assert all(toeplitz._fast_length(m) == next_fast_len(m, real=True)
                   for m in range(1, 5000))

    def test_long_weights_rejected(self):
        cov = st.covariance_sequence(st.WhiteNoise(1.0), 2)
        with pytest.raises(st.ValidationError):
            st.quadratic_form(st.lse_weights(5), cov)


class TestReflections:
    def test_magnitudes_below_one_for_nondeterministic(self, ma1):
        refl = reflection_coefficients(st.covariance_sequence(ma1, 32).values)
        assert np.all(np.abs(refl) < 1.0)

    def test_prediction_error_factorization(self, ar1):
        cov = st.covariance_sequence(ar1, 8)
        refl = reflection_coefficients(cov.values)
        sigma2 = cov.values[0] * np.prod(1.0 - refl ** 2)
        # one-step prediction error at order 8 via the orthogonal recursion
        state = st.szego_recursion(ar1, 8)
        assert sigma2 == pytest.approx(st.prediction_error(state, 8), rel=1e-12)


class TestInverseDensityApproximation:
    def test_white_noise_exact_anchor(self, white_noise):
        assert st.inverse_density_approx_variance(white_noise, 9) == pytest.approx(
            0.1, rel=1e-12)

    def test_calibration_constant_pinned(self):
        assert INVERSE_DENSITY_CALIBRATION == pytest.approx(1.0 / (TWO_PI * TWO_PI), rel=0)

    def test_ma1_close_to_true_variance(self, ma1):
        n = 4096
        approx = st.inverse_density_approx_variance(ma1, n)
        true = st.blue_variance_curve(st.covariance_sequence(ma1, n))[n]
        assert approx == pytest.approx(true, rel=0.03)

    def test_rejects_non_integrable_inverse(self):
        with pytest.raises(st.ValidationError):
            st.inverse_density_approx_variance(st.PowerAtOrigin(1.0), 16)
        with pytest.raises(st.ValidationError):
            st.inverse_density_approx_variance(st.ArcSupported(1.0, 1.0), 16)

    def test_approaches_short_memory_constant(self, ar1):
        n = 2048
        approx = st.inverse_density_approx_variance(ar1, n)
        limit = st.short_memory_variance_limit(ar1)
        assert n * approx == pytest.approx(limit, rel=0.01)
