"""Covariance sequences: closed forms, quadrature agreement, asymptotics."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import statmean as st
from statmean import cli, efficiency, estimators, opuc, quadrature, toeplitz
from statmean import ddouble as dd
from statmean.covariance import (QUAD_TOL, _density_covariances,
                                 _quadrature_density_covariances, falpha_covariance_array)
from statmean.quadrature import _graded_grid, model_grid
from tests.conftest import arma_covariances_mp, complex_fourier_coefficient, fgn_covariances_mp

TWO_PI = 2.0 * math.pi


class TestExactFalpha:
    def test_alpha_one_values(self):
        assert st.covariance_exact_falpha(1.0, 0) == pytest.approx(2.0, rel=1e-14)
        assert st.covariance_exact_falpha(1.0, 1) == pytest.approx(-1.0, rel=1e-14)
        assert st.covariance_exact_falpha(1.0, 2) == 0.0          # pole convention
        assert st.covariance_exact_falpha(1.0, 7) == 0.0

    def test_white_noise_case(self):
        assert st.covariance_exact_falpha(0.0, 0) == pytest.approx(1.0)
        assert all(st.covariance_exact_falpha(0.0, k) == 0.0 for k in range(1, 6))

    def test_validation(self):
        with pytest.raises(st.ValidationError):
            st.covariance_exact_falpha(-0.5, 0)

    @pytest.mark.parametrize("alpha", [-0.4, -0.25, 0.25, 1.0, 2.0])
    def test_matches_quadrature(self, alpha):
        exact = falpha_covariance_array(alpha, 64)
        quad = _quadrature_density_covariances(st.PowerAtOrigin(alpha), 64)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - quad) / scale) < 1e-9

    def test_alpha_quarter_k5_against_oracle(self):
        quad = _quadrature_density_covariances(st.PowerAtOrigin(0.25), 5)
        assert st.covariance_exact_falpha(0.25, 5) == pytest.approx(quad[5], abs=1e-10)


class TestAsymptote:
    def test_large_k_ratio(self):
        asym = st.covariance_asymptote_falpha(-0.25, 100)
        exact = st.covariance_exact_falpha(-0.25, 100)
        assert not asym.degenerate
        assert exact / asym.value == pytest.approx(1.0, abs=0.02)

    def test_degenerate_at_positive_integers(self):
        out = st.covariance_asymptote_falpha(1.0, 7)
        assert out.value == 0.0 and out.degenerate

    def test_monotone_approach(self):
        ks = np.array([50, 100, 200, 400, 800])
        ratios = [st.covariance_exact_falpha(0.25, k) /
                  st.covariance_asymptote_falpha(0.25, k).value for k in ks]
        diffs = np.abs(np.array(ratios) - 1.0)
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 2e-3


class TestCovarianceSequence:
    def test_power_at_origin(self):
        cov = st.covariance_sequence(st.PowerAtOrigin(1.0), 2)
        assert cov.values == pytest.approx([2.0, -1.0, 0.0])
        assert cov.provenance == "exact"

    def test_white_noise(self, white_noise):
        cov = st.covariance_sequence(white_noise, 3)
        assert cov.values == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_atom_contribution(self, atom_measure):
        cov = st.covariance_sequence(atom_measure, 1)
        assert cov.values == pytest.approx([1.5, 0.5])

    def test_off_origin_atom_uses_cosine(self, white_noise):
        measure = st.SpectralMeasure(white_noise, ((math.pi / 3, 0.4),))
        cov = st.covariance_sequence(measure, 2)
        assert cov.values[1] == pytest.approx(0.4 * math.cos(math.pi / 3))
        assert cov.values[2] == pytest.approx(0.4 * math.cos(2 * math.pi / 3))

    def test_ma1_exact(self, ma1):
        cov = st.covariance_sequence(ma1, 3)
        assert cov.provenance == "exact"
        assert cov.values == pytest.approx([1.25, -0.5, 0.0, 0.0])

    def test_ar1_quadrature_matches_closed_form(self, ar1):
        """The quadrature route still integrates AR(1) to 1e-12; the sequence
        itself now comes from the closed form."""
        rho = 0.5
        expected = rho ** np.arange(33) / (1 - rho * rho)
        quad = _quadrature_density_covariances(ar1, 32)
        assert np.max(np.abs(quad - expected)) < 1e-12
        cov = st.covariance_sequence(ar1, 32)
        assert cov.provenance == "exact"
        assert np.max(np.abs(cov.values - expected)) < 1e-12

    def test_arma_against_statsmodels(self):
        sm = pytest.importorskip("statsmodels.tsa.arima_process")
        model = st.Arma(ma=(1.0, 0.4, -0.2), ar=(1.0, -0.6, 0.08))
        cov = st.covariance_sequence(model, 20)
        oracle = sm.arma_acovf(ar=np.array([1.0, -0.6, 0.08]),
                               ma=np.array([1.0, 0.4, -0.2]), nobs=21, sigma2=1.0)
        assert np.max(np.abs(cov.values - oracle)) < 1e-10

    def test_arma_against_residue_oracle(self):
        """The statsmodels model against the 40-digit residue oracle."""
        model = st.Arma(ma=(1.0, 0.4, -0.2), ar=(1.0, -0.6, 0.08))
        cov = st.covariance_sequence(model, 20)
        oracle = np.array([float(v) for v in arma_covariances_mp(model.ar, model.ma, 1.0, 20)[0]])
        assert cov.provenance == "exact"
        np.testing.assert_allclose(cov.values, oracle, rtol=1e-12, atol=0.0)

    def test_product_exact_convolution(self, ma1):
        model = st.Product(st.PowerAtOrigin(0.25), ma1)
        cov = st.covariance_sequence(model, 16)
        assert cov.provenance == "exact"
        quad = _quadrature_density_covariances(model, 16)
        assert np.max(np.abs(cov.values - quad)) < 1e-11

    def test_arfima_of_white_noise_is_exact(self, white_noise):
        cov = st.covariance_sequence(st.ArfimaFactor(0.25, white_noise), 8)
        assert cov.provenance == "exact"
        assert np.allclose(cov.values, falpha_covariance_array(-0.25, 8))

    def test_frequency_shift_by_pi_alternates_signs(self):
        base = st.PowerAtOrigin(1.0)
        cov = st.covariance_sequence(st.FrequencyShifted(base, math.pi), 3)
        assert cov.values == pytest.approx([2.0, 1.0, 0.0, 0.0])

    def test_evenness_of_fourier_transform(self):
        """r(k) from e^{ik lam} equals the e^{-ik lam} value for even densities."""
        model = st.FgnDensity(0.4)   # bounded at the origin, trapezoid-friendly
        cov = st.covariance_sequence(model, 6)
        for k in (1, 3, 6):
            plus = complex_fourier_coefficient(model, k)
            minus = complex_fourier_coefficient(model, -k)
            assert abs(plus - minus) < 1e-13 * max(1.0, abs(plus))
            assert abs(plus.imag) < 1e-10
            # the trapezoid oracle itself converges like h^1.2 at the origin kink
            assert cov.values[k] == pytest.approx(plus.real, abs=2e-5)

    def test_positive_definiteness_check(self):
        cov = st.covariance_sequence(st.FgnDensity(0.75), 64)
        assert np.all(np.abs(toeplitz.reflection_coefficients(cov.values)) < 1.0)

    def test_metadata_fields(self):
        cov = st.covariance_sequence(st.FgnDensity(0.6), 4)
        assert cov.precision == "double"
        assert cov.order == 4

    def test_frozen_with_read_only_copies(self):
        given, lo = np.array([2.0, -1.0, 0.0]), np.zeros(3)
        cov = st.CovarianceSequence(given, "exact", precision="dd", lo=lo)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cov.values = given
        with pytest.raises(ValueError):
            cov.values[0] = 3.0
        with pytest.raises(ValueError):
            cov.lo[0] = 1.0
        given[0] = 3.0                                   # the caller's arrays stay theirs
        lo[0] = 1.0
        assert cov.values[0] == 2.0 and cov.lo[0] == 0.0

    def test_invalid_sequence_rejected(self):
        with pytest.raises(st.ValidationError):
            st.CovarianceSequence(np.array([1.0, 2.0]), "exact")
        with pytest.raises(st.ValidationError):
            st.CovarianceSequence(np.array([-1.0, 0.0]), "exact")

    @pytest.mark.parametrize("values, lo", [([math.nan, 0.5], None), ([1.0, math.nan], None),
                                            ([math.inf, 0.5], None),
                                            ([1.0, 0.5], [0.0, math.nan])])
    def test_non_finite_sequence_rejected(self, values, lo):
        precision = "double" if lo is None else "dd"
        with pytest.raises(st.ValidationError):
            st.CovarianceSequence(np.array(values), "exact", precision=precision, lo=lo)

    def test_dd_sequence_needs_low_parts(self):
        with pytest.raises(st.ValidationError):
            st.CovarianceSequence(np.array([1.0, 0.5]), "exact", precision="dd")

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_non_finite_result_is_an_accuracy_error(self, precision):
        with np.errstate(all="ignore"), pytest.raises(st.AccuracyError):
            st.covariance_sequence(st.Arma((1e308, 1e308)), 4, precision=precision)


class TestExtendedPrecision:
    def test_dd_matches_double_for_arc(self):
        model = st.ArcSupported(math.pi / 2, 1.0 / TWO_PI)
        ddcov = st.covariance_sequence(model, 16, precision="dd")
        dcov = st.covariance_sequence(model, 16)
        assert ddcov.precision == "dd"
        assert np.max(np.abs(ddcov.values - dcov.values)) < 1e-15
        # lo parts are genuinely tiny corrections
        assert ddcov.lo.shape == ddcov.values.shape
        assert np.max(np.abs(ddcov.lo)) < 1e-15

    def test_dd_falpha(self):
        ddcov = st.covariance_sequence(st.PowerAtOrigin(0.25), 8, precision="dd")
        assert np.allclose(ddcov.values, falpha_covariance_array(0.25, 8))

    def test_double_power_law_carries_the_dd_low_parts(self):
        """One recurrence serves both precisions: the double sequence keeps the
        low parts, for the refinement step, while its precision says double."""
        dcov = st.covariance_sequence(st.PowerAtOrigin(1.55), 64)
        ddcov = st.covariance_sequence(st.PowerAtOrigin(1.55), 64, precision="dd")
        assert dcov.precision == "double" and np.any(dcov.lo)
        assert dcov.values.tobytes() == ddcov.values.tobytes()
        assert dcov.lo.tobytes() == ddcov.lo.tobytes()

    def test_dd_flat_zero_close_to_double_quadrature(self):
        ddcov = st.covariance_sequence(st.FlatZero(1.5), 8, precision="dd")
        dcov = st.covariance_sequence(st.FlatZero(1.5), 8)
        assert np.max(np.abs(ddcov.values - dcov.values)) < 1e-11

    def test_dd_flat_zero_against_mpmath_quad(self):
        cov = st.covariance_sequence(st.FlatZero(1.5), 16, precision="dd")
        with mpmath.workdps(40):
            a = mpmath.mpf(1.5)
            for k in range(17):
                ref = 2 * mpmath.quad(lambda t: mpmath.exp(-t ** -a) * mpmath.cos(k * t)
                                      if t > 0 else 0, mpmath.linspace(0, mpmath.pi, 9))
                assert abs(mpmath.mpf(cov.values[k]) + mpmath.mpf(cov.lo[k]) - ref) < 1e-30

    def test_dd_flat_zero_table_is_summed_a_slice_at_a_time(self, monkeypatch):
        """Rows formed and summed _SUM_ROWS lags at a time give the whole
        table's bits, and at n = 129 peak near 2.7 MB, where the whole table
        peaked near 4.9 MB."""
        model = st.FlatZero(1.5)
        tracemalloc.start()
        try:
            model.covariances(129, dd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6
        sliced = [model.covariances(kmax, dd)[0] for kmax in (15, 16, 17, 48, 129, 257)]
        monkeypatch.setattr(quadrature, "_SUM_ROWS", 1 << 20)
        for got, kmax in zip(sliced, (15, 16, 17, 48, 129, 257)):
            whole = model.covariances(kmax, dd)[0]
            assert got.hi.tobytes() == whole.hi.tobytes(), kmax
            assert got.lo.tobytes() == whole.lo.tobytes(), kmax

    def test_dd_unavailable_for_general_models(self):
        """Fisher-Hartwig zeros off the origin have no closed form."""
        model = st.FisherHartwig(st.WhiteNoise(), ((1.2, 0.3), (-1.2, 0.3)))
        with pytest.raises(st.ValidationError):
            st.covariance_sequence(model, 4, precision="dd")


class TestOneClosedFormSet:
    """Both precisions take a model's closed form from the same variant code."""

    ARC = st.ArcSupported(0.455 * math.pi, 1.0 / TWO_PI)

    def test_scaled_flat_zero_dd_reports_its_quadrature(self):
        cov = st.covariance_sequence(st.Scaled(st.FlatZero(1.5), 2.0), 8, precision="dd")
        assert cov.provenance == "quadrature"

    def test_nested_scaling_of_an_arc_is_exact_in_double(self):
        nested = st.covariance_sequence(st.Scaled(st.Scaled(self.ARC, 2.0), 1.5), 32)
        single = st.covariance_sequence(st.Scaled(self.ARC, 3.0), 32)
        assert nested.provenance == "exact"
        np.testing.assert_allclose(nested.values, single.values, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("inner", [ARC, st.PowerAtOrigin(0.3)])
    def test_dd_shift_by_pi_alternates_signs_bitwise(self, inner):
        base = st.covariance_sequence(inner, 16, precision="dd")
        shifted = st.covariance_sequence(st.FrequencyShifted(inner, math.pi), 16, precision="dd")
        signs = np.where(np.arange(17) % 2 == 0, 1.0, -1.0)
        assert shifted.provenance == "exact"
        assert (signs * base.values).tobytes() == shifted.values.tobytes()
        assert (signs * base.lo).tobytes() == shifted.lo.tobytes()

    @pytest.mark.parametrize("precision", ["double", "dd"])
    @pytest.mark.parametrize("inner", [ARC, st.PowerAtOrigin(0.3)])
    def test_shift_by_zero_is_the_model_itself_bitwise(self, inner, precision):
        base = st.covariance_sequence(inner, 16, precision=precision)
        shifted = st.covariance_sequence(st.FrequencyShifted(inner, 0.0), 16, precision=precision)
        assert shifted.provenance == base.provenance == "exact"
        assert shifted.values.tobytes() == base.values.tobytes()
        if precision == "dd":
            assert shifted.lo.tobytes() == base.lo.tobytes()

    @pytest.mark.parametrize("model", [st.Scaled(st.PowerAtOrigin(1.0), 1.7),
                                       st.Product(st.PowerAtOrigin(0.25), st.Arma((1.0, -0.5))),
                                       st.FrequencyShifted(st.ArfimaFactor(0.2, st.WhiteNoise()),
                                                           -math.pi)])
    def test_dd_hi_parts_round_the_double_closed_form(self, model):
        ddcov = st.covariance_sequence(model, 24, precision="dd")
        dcov = st.covariance_sequence(model, 24)
        assert ddcov.provenance == dcov.provenance == "exact"
        scale = np.max(np.abs(dcov.values))
        assert np.max(np.abs(ddcov.values + ddcov.lo - dcov.values)) < 1e-14 * scale


def _mp_falpha_gamma(alpha, kmax):
    """r_alpha(0..kmax) at 50 digits from the gamma form, 0 at the poles."""
    a = mpmath.mpf(alpha)
    out = []
    for k in range(kmax + 1):
        x = a - k + 1
        pole = x <= 0 and x == mpmath.nint(x)
        out.append(0 if pole else (-1) ** k * mpmath.gamma(2 * a + 1)
                   / (mpmath.gamma(a + k + 1) * mpmath.gamma(x)))
    return out


class TestRatioRecurrence:
    """r_alpha by r(k+1) = r(k) (k-a)/(k+a+1), in double-double rounded once."""

    @pytest.mark.parametrize("alpha", [-0.4, 0.3, 1.3, 1.55, 1.9, 2.5])
    def test_within_eight_ulps_of_fifty_digits(self, alpha):
        kmax = 4096
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            ref = [mpmath.binomial(2 * a, a)]
            for k in range(kmax):
                ref.append(ref[-1] * (k - a) / (k + 1 + a))
            ref = np.array([float(r) for r in ref])
        ulps = np.abs(falpha_covariance_array(alpha, kmax) - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 8

    def test_r0_is_correctly_rounded(self):
        """binom(2a, a) is the 50-digit value rounded to nearest, over (-1/2, 2.5]."""
        alphas = np.linspace(-0.495, 2.5, 600)
        with mpmath.workdps(50):
            want = [float(mpmath.binomial(2 * mpmath.mpf(a), mpmath.mpf(a))) for a in alphas]
        assert [falpha_covariance_array(float(a), 0)[0] for a in alphas] == want

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 4])
    def test_integer_alpha_is_exact(self, alpha):
        r = falpha_covariance_array(float(alpha), 64)
        exact = [(-1) ** k * math.comb(2 * alpha, alpha + k) for k in range(alpha + 1)]
        assert r[:alpha + 1].tolist() == exact
        assert np.all(r[alpha + 1:] == 0.0) and not np.any(np.signbit(r[alpha + 1:]))
        # the symbol 2 pi f(0) is 1 at alpha = 0 and vanishes exactly otherwise
        assert r[0] + 2.0 * r[1:].sum() == (1.0 if alpha == 0 else 0.0)

    def test_near_integer_alpha_is_not_an_integer(self):
        assert falpha_covariance_array(1.0 + 1e-13, 4)[2] != 0.0

    def test_dd_against_fifty_digit_gamma_form(self):
        cov = st.covariance_sequence(st.PowerAtOrigin(1.55), 256, precision="dd")
        with mpmath.workdps(50):
            ref = _mp_falpha_gamma(1.55, 256)
            err = [abs(mpmath.mpf(h) + mpmath.mpf(lo) - r)
                   for h, lo, r in zip(cov.values, cov.lo, ref)]
        assert float(max(err)) < 1e-30

    def test_dd_white_noise_constant_at_forty_digits(self):
        cov = st.covariance_sequence(st.WhiteNoise(0.3), 2, precision="dd")
        with mpmath.workdps(50):
            ref = 2 * mpmath.pi * mpmath.mpf(0.3)
            assert abs(mpmath.mpf(cov.values[0]) + mpmath.mpf(cov.lo[0]) - ref) < 1e-30 * ref
        assert not np.any(cov.values[1:]) and not np.any(cov.lo[1:])

    def test_dd_product_constant_at_forty_digits(self):
        """f_a/(2 pi) times |1 - e^{i lam}/2|^2/(2 pi) carries C = 1/(2 pi)."""
        model = st.Product(st.PowerAtOrigin(0.25), st.Arma((1.0, -0.5)))
        cov = st.covariance_sequence(model, 4, precision="dd")
        with mpmath.workdps(50):
            ra = _mp_falpha_gamma(0.25, 5)
            for k in range(5):
                ref = (1.25 * ra[k] - 0.5 * (ra[k + 1] + ra[abs(k - 1)])) / (2 * mpmath.pi)
                got = mpmath.mpf(cov.values[k]) + mpmath.mpf(cov.lo[k])
                assert abs(got - ref) < 1e-30 * abs(ref)

    @pytest.mark.parametrize("alpha, n, tol", [(2.0, 1024, 1e-10), (2.0, 2048, 1e-10),
                                               (1.9, 2048, 5e-6)] + [
        (alpha, n, 1e-9) for alpha in (1.3, 1.55, 1.9, 1.9995) for n in (1024, 2048)] + [
        (alpha, 4096, 1e-7 if alpha == 1.9 else 1e-8) for alpha in (1.3, 1.55, 1.9, 2.0)])
    def test_blue_variance_against_closed_form(self, alpha, n, tol):
        _, variance = st.blue_solve(st.system_for(st.PowerAtOrigin(alpha), n))
        exact = st.adenstedt_variance_closed_form(n, alpha)
        assert abs(variance / exact - 1.0) < tol


class TestGammaReflection:
    def test_signed_values_against_mpmath(self):
        """The recurrence against the gamma form, reflection signs included, for
        arguments deep in the left half-line: an independent oracle."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for alpha in (0.3, 0.75, 1.6, 2.2):
            for k in range(0, 12):
                mine = st.covariance_exact_falpha(alpha, k)
                x = mpmath.mpf(alpha) - k + 1
                if x <= 0 and abs(x - mpmath.nint(x)) < 1e-12:
                    assert mine == 0.0
                    continue
                ref = (-1) ** k * mpmath.gamma(2 * alpha + 1) / (
                    mpmath.gamma(alpha + k + 1) * mpmath.gamma(x))
                assert mine == pytest.approx(float(ref), rel=1e-12)


class TestErrorContracts:
    def test_quadrature_nonconvergence_reports_achieved_tolerance(self, ar1):
        """An exponent numerically at -1/2 cannot be graded to 1e-12 in double."""
        model = st.Product(st.PowerAtOrigin(-0.49), ar1)
        with pytest.raises(st.AccuracyError) as err:
            st.covariance_sequence(model, 8)
        assert err.value.achieved is not None
        assert math.isfinite(err.value.achieved) and err.value.achieved > 1e-12


class TestStrongSingularityOracle:
    def test_product_with_deep_negative_power(self, ar1):
        """Quadrature vs a substitution-based high-precision oracle at 2a = -0.9."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        model = st.Product(st.PowerAtOrigin(-0.45), ar1)
        cov = st.covariance_sequence(model, 2)

        def f(lam):
            return ((2 * mpmath.sin(lam / 2)) ** (2 * mpmath.mpf("-0.45"))
                    / (2 * mpmath.pi) ** 2
                    / abs(1 - mpmath.mpf("0.5") * mpmath.exp(1j * lam)) ** 2)

        top = mpmath.pi ** mpmath.mpf("0.1")
        for k in range(3):
            # lam = t^10 removes the lam^-0.9 singularity exactly
            oracle = 2 * mpmath.quad(
                lambda t: f(t ** 10) * mpmath.cos(k * t ** 10) * 10 * t ** 9, [0, top])
            assert cov.values[k] == pytest.approx(float(oracle), rel=1e-11)


class TestNoCallHistory:
    @pytest.mark.parametrize("model", [st.Arma(ma=(1.0,), ar=(1.0, -0.5)), st.FgnDensity(0.7),
                                       st.FisherHartwig(st.WhiteNoise(), ((1.2, 0.3), (-1.2, 0.3)))],
                             ids=["ar1", "fgn", "fisher_hartwig"])
    def test_same_bits_fresh_and_after_a_larger_order(self, model):
        """The quadrature grid depends on the order, so a prefix of a longer
        sequence is not the sequence asked for: the cache keys on the order."""
        _density_covariances.cache_clear()
        fresh = st.covariance_sequence(model, 128).values.tobytes()
        st.covariance_sequence(model, 1024)
        assert st.covariance_sequence(model, 128).values.tobytes() == fresh


class TestCacheBounds:
    def test_covariance_cache_bounded(self):
        maxsize = _density_covariances.cache_info().maxsize
        for i in range(maxsize + 40):
            st.covariance_sequence(st.PowerAtOrigin(-0.3 + 0.01 * i), 4)
        assert _density_covariances.cache_info().currsize == maxsize

    def test_grid_cache_bounded(self):
        maxsize = _graded_grid.cache_info().maxsize
        for i in range(maxsize + 40):
            model_grid(st.PowerAtOrigin(-0.3 + 0.01 * i), osc_k=16)
        assert _graded_grid.cache_info().currsize == maxsize

    def test_one_call_chain_builds_each_grid_once(self, monkeypatch, tmp_path, capsys):
        """The bounded grid cache still holds every grid one call chain reuses:
        a finite-efficiency sweep over four orders, and one op of solves,
        recursions and competitor variances on a model that is integrated."""
        built = collections.Counter()
        real = quadrature.half_line_grid

        def counting(depths, **kw):
            built[(tuple(sorted(depths.items())), tuple(sorted(kw.items())))] += 1
            return real(depths, **kw)

        monkeypatch.setattr(quadrature, "half_line_grid", counting)
        model = st.FisherHartwig(st.WhiteNoise(), ((1.2, 0.3), (-1.2, 0.3)))
        path = tmp_path / "fh.json"
        path.write_text(json.dumps(model.to_json()))
        _graded_grid.cache_clear()
        _density_covariances.cache_clear()
        assert cli.main(["efficiency", "--finite", "--estimator", "lse", "--model", str(path),
                         "--n-grid", "128:512:128"]) == 0
        capsys.readouterr()
        assert len(built) >= 4 and max(built.values()) == 1

        built.clear()
        n, measure = 1024, st.SpectralMeasure(model)
        cov = st.covariance_sequence(measure, n)
        toeplitz.blue_solve(toeplitz.ToeplitzSystem(cov))
        toeplitz.blue_variance_curve(cov)
        toeplitz.quadratic_form(estimators.parabolic_weights(n).coefficients, cov)
        opuc.christoffel_curve(opuc.szego_recursion(measure, n, probes=(1.0,)), 1.0)
        for weights in (estimators.lse_weights(n), estimators.parabolic_weights(n),
                        estimators.adenstedt_weights(n, 0.3)):
            estimators.variance_under(weights, measure)
        efficiency.efficiency_finite(estimators.lse_weights(n), measure)
        assert len(built) >= 2 and max(built.values()) == 1

    def test_least_recently_used_goes_first(self):
        """Asking for the oldest entry again keeps it when one more is stored;
        the entry next in age goes instead."""
        maxsize = _density_covariances.cache_info().maxsize
        models = [st.PowerAtOrigin(0.01 * i) for i in range(maxsize + 1)]

        def hits(model):
            before = _density_covariances.cache_info().hits
            st.covariance_sequence(model, 4)
            return _density_covariances.cache_info().hits - before

        _density_covariances.cache_clear()
        assert [hits(m) for m in models[:maxsize]] == [0] * maxsize
        assert hits(models[0]) == 1
        assert hits(models[maxsize]) == 0
        assert (hits(models[0]), hits(models[1])) == (1, 0)


#: a model with closed forms in both precisions, to be rebuilt from its document
DOCUMENTED = st.Product(st.PowerAtOrigin(0.3), st.Arma(ma=(1.0, 0.4)))


class TestCacheKeys:
    """The caches key on values: models that compare equal share one entry."""

    PAIRS = {"signed_zero_alpha": (st.PowerAtOrigin(0.0), st.PowerAtOrigin(-0.0)),
             "signed_zero_ma": (st.Arma(ma=(1.0, 0.0, 0.3)), st.Arma(ma=(1.0, -0.0, 0.3))),
             "int_factor": (st.Scaled(st.FgnDensity(0.7), 1.0), st.Scaled(st.FgnDensity(0.7), 1)),
             "from_document": (DOCUMENTED, st.model_from_json(
                 json.loads(json.dumps(DOCUMENTED.to_json()))))}

    @pytest.mark.parametrize("precision", ["double", "dd"])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equal_models_share_one_entry(self, name, precision):
        """One miss, then one hit, and the same bits whichever is asked first."""
        first, second = self.PAIRS[name]
        assert first == second
        bits = []
        for order in ((first, second), (second, first)):
            _density_covariances.cache_clear()
            seqs = [st.covariance_sequence(m, 256, precision=precision) for m in order]
            info = _density_covariances.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            bits.append([(s.values.tobytes(), None if s.lo is None else s.lo.tobytes())
                         for s in seqs])
        assert bits[0][0] == bits[0][1] == bits[1][0]

    def test_models_with_one_grading_share_a_grid(self):
        """Two Fisher-Hartwig zeros at the same angles, of different orders,
        grade the same way, so the second model's grid is the first one's."""
        a = st.FisherHartwig(st.WhiteNoise(), ((1.2, 0.3), (-1.2, 0.3)))
        b = st.FisherHartwig(st.WhiteNoise(2.0), ((1.2, 0.7), (-1.2, 0.7)))
        _graded_grid.cache_clear()
        grid = model_grid(a, osc_k=64)
        assert model_grid(b, osc_k=64) is grid
        info = _graded_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_cached_values_are_read_only(self, precision):
        """A caller that writes into a shared value is refused, not obeyed."""
        model = st.FgnDensity(0.7)
        dens, _ = _density_covariances(model, precision, 16)
        for a in (dens.hi, dens.lo) if precision == "dd" else (dens,):
            with pytest.raises(ValueError):
                a[0] = 0.0
        for a in model_grid(model, osc_k=64):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestFgnClosedForm:
    """FGN from its second difference, against 40-digit values at every lag."""

    @pytest.mark.parametrize("hurst, scale", [(0.05, 1.0), (0.2, 1.0), (0.45, 1.0), (0.5, 1.0),
                                              (0.55, 1.0), (0.8, 1.0), (0.85, 1.0), (0.95, 1.0),
                                              (0.8, 2.7), (0.3, 0.04), (0.5 - 1e-9, 1.0),
                                              (0.5 + 1e-9, 1.0)])
    def test_double_within_1e12_of_forty_digits(self, hurst, scale):
        cov = st.covariance_sequence(st.FgnDensity(hurst, scale), 4096)
        ref = np.array([float(v) for v in fgn_covariances_mp(hurst, scale, 4096)])
        assert cov.provenance == "exact"
        assert np.all(cov.values[ref == 0.0] == 0.0)
        nonzero = ref != 0.0
        assert np.max(np.abs(cov.values[nonzero] / ref[nonzero] - 1.0)) < 1e-12

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.5 + 1e-9, 0.8])
    def test_dd_within_1e28_of_forty_digits(self, hurst):
        cov = st.covariance_sequence(st.FgnDensity(hurst, 1.3), 4096, precision="dd")
        ref = fgn_covariances_mp(hurst, 1.3, 4096)
        assert cov.provenance == "exact"
        with mpmath.workdps(40):
            for h, lo, r in zip(cov.values, cov.lo, ref):
                assert abs(mpmath.mpf(h) + mpmath.mpf(lo) - r) <= 1e-28 * abs(r)

    @pytest.mark.parametrize("hurst", [0.3, 0.8])
    def test_normalisation_is_the_density_integral(self, hurst):
        """r0 = 2 pi scale / (Gamma(2H+1) sin pi H) is the integral of `values`."""
        model = st.FgnDensity(hurst, 1.5)
        quad = _quadrature_density_covariances(model, 16)
        np.testing.assert_allclose(st.covariance_sequence(model, 16).values, quad,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("hurst", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_quadrature_over_an_fgn_base_meets_the_closed_form(self, hurst):
        """An ARFIMA factor with d = 0 over FGN has no closed form, so it is
        integrated: the gate holds only if `values` is right to double rounding."""
        quad = st.covariance_sequence(st.ArfimaFactor(0.0, st.FgnDensity(hurst)), 256)
        exact = st.covariance_sequence(st.FgnDensity(hurst), 256)
        assert (quad.provenance, exact.provenance) == ("quadrature", "exact")
        assert np.max(np.abs(quad.values - exact.values)) <= QUAD_TOL


class TestArmaClosedForm:
    """ARMA by the step-down, Levinson and the difference equation, in
    double-double at either precision, against the 40-digit residue oracle."""

    MODELS = {"ar1": st.Arma(ar=(1.0, -0.8)), "ar1_negative": st.Arma(ar=(1.0, 0.8)),
              "ar2_complex": st.Arma(ar=(1.0, -1.5, 0.9)),
              "arma22": st.Arma(ma=(1.0, 0.4, -0.2), ar=(1.0, -0.6, 0.08)),
              "arma22_complex": st.Arma(ma=(1.0, 0.7, 0.3), ar=(2.0, -1.2, 0.6), scale=1.7)}

    @pytest.mark.parametrize("name", MODELS)
    def test_double_within_1e12_at_every_normal_lag(self, name):
        model = self.MODELS[name]
        cov = st.covariance_sequence(model, 4096)
        ref = np.array([float(v) for v in arma_covariances_mp(model.ar, model.ma, model.scale,
                                                              4096)[0]])
        normal = np.abs(ref) >= np.finfo(float).tiny
        assert cov.provenance == "exact" and normal[:100].all()
        assert np.max(np.abs(cov.values[normal] / ref[normal] - 1.0)) < 1e-12

    @pytest.mark.parametrize("name", MODELS)
    def test_dd_within_1e28_of_the_envelope(self, name):
        """Relative to the envelope, which is |r(k)| for the AR(1) models: a
        damped cosine passes near 0, where no recurrence keeps relative digits
        (r(k) there moves by k ulps of its envelope with the coefficients)."""
        model = self.MODELS[name]
        cov = st.covariance_sequence(model, 4096, precision="dd")
        ref, env = arma_covariances_mp(model.ar, model.ma, model.scale, 4096)
        assert cov.provenance == "exact"
        with mpmath.workdps(40):
            for h, lo, r, e in zip(cov.values, cov.lo, ref, env):
                if e > 2.0 ** -916:             # low parts normal
                    assert abs(mpmath.mpf(h) + mpmath.mpf(lo) - r) <= 1e-28 * e

    def test_double_is_the_dd_sequence(self):
        model = self.MODELS["arma22_complex"]
        dcov, ddcov = (st.covariance_sequence(model, 256, precision=p) for p in ("double", "dd"))
        assert dcov.precision == "double" and np.any(dcov.lo)
        assert dcov.values.tobytes() == ddcov.values.tobytes()
        assert dcov.lo.tobytes() == ddcov.lo.tobytes()


class TestClosedFormFallbacks:
    """A variant without a closed form is integrated exactly as before."""

    @pytest.mark.parametrize("model", [st.Arma(ar=(1.0, -2.0)),
                                       st.Arma(ma=(1.0, 0.3), ar=(1.0, 0.5, -2.0)),
                                       st.ArfimaFactor(0.2, st.Arma(ar=(1.0, -0.5)))],
                             ids=["noncausal_ar1", "noncausal_arma", "arfima_over_ar"])
    def test_quadrature_as_the_route_itself(self, model):
        _density_covariances.cache_clear()
        cov = st.covariance_sequence(model, 64)
        assert cov.provenance == "quadrature" and cov.lo is None
        assert cov.values.tobytes() == _quadrature_density_covariances(model, 64).tobytes()
        with pytest.raises(st.ValidationError):
            st.covariance_sequence(model, 8, precision="dd")


def _dd_cosine_moments(lam, c, ks):
    """2 sum c cos(k lam) in double-double: k lam formed exactly by two_prod,
    its cosine by `ddouble.sincos`, the sum error-free before one rounding."""
    out = []
    for k in ks:
        cos = dd.sincos(dd.DD(*dd.two_prod(float(k), lam)))[1]
        out.append(2.0 * float(dd.dot(cos, dd.DD(c, np.zeros_like(c)))))
    return np.array(out)


class TestCosineMoments:
    """The nonuniform FFT against 30-digit sums over the same nodes: lags
    0, 1, 2, 37, kmax - 1 and kmax, on the finest of the covariance gate's
    three grids."""

    FH = st.FisherHartwig(st.WhiteNoise(), ((1.3, 0.3), (-1.3, 0.3)))
    INTEGRANDS = {
        "fh": (FH, lambda m, lam: m.values(lam)),
        "fh_inverse": (FH, lambda m, lam: 1.0 / m.values(lam)),
        "fh_log": (FH, lambda m, lam: m.log_values(lam)),
        # mass at the origin: every lag's alias is as large as the sum
        "fgn_base": (st.ArfimaFactor(0.0, st.FgnDensity(0.95)), lambda m, lam: m.values(lam)),
    }

    @staticmethod
    def _finest(model, kmax):
        return model_grid(model, osc_k=kmax, base_panels=21,
                          depth=quadrature.SINGULAR_PANELS + 16, nodes=48)

    @pytest.mark.parametrize("kmax", [0, 1, 2, 16, 1024, 4096])
    @pytest.mark.parametrize("integrand", sorted(INTEGRANDS))
    def test_within_1e14_of_the_absolute_sum(self, integrand, kmax):
        """Measured within 1.5e-15 of sum |w f| at every point.  The Chebyshev
        recurrence it replaced was 6e-12 off on the FGN base at kmax = 4096, and
        a grid of 4 (kmax + 1) points 1.3e-13 there: its alias of lag kmax is
        e^-29 of the sum."""
        model, values = self.INTEGRANDS[integrand]
        lam, w = self._finest(model, kmax)
        f = values(model, lam)
        ks = sorted({k for k in (0, 1, 2, 37, kmax - 1, kmax) if 0 <= k <= kmax})
        got = quadrature.cosine_moments(lam, w, f, kmax)
        assert got.shape == (kmax + 1,)
        want = _dd_cosine_moments(lam, w * f, ks)
        assert np.max(np.abs(got[ks] - want)) <= 1e-14 * np.sum(np.abs(w * f))

    def test_memory_is_linear_in_the_nodes(self):
        """Spreading offset by offset peaks near 4.7 MiB on 53,424 nodes at
        kmax = 4096; a (nodes x 29) table of the Gaussian's factors peaks
        near 37 MiB."""
        lam, w = self._finest(self.FH, 4096)
        f = self.FH.values(lam)
        assert len(lam) == 53424
        tracemalloc.start()
        try:
            quadrature.cosine_moments(lam, w, f, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
