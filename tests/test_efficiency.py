"""Efficiency ratios and every closed-form limit law."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import statmean as st

TWO_PI = 2.0 * math.pi


def fit_asymptote_constant(orders, variances, power: float) -> float:
    """Fit a in Var ~ a * n^(-power) with the rate fixed by theory.

    Geometric mean of Var * n^power over the top half of the grid; fitting
    only the constant avoids conflating rate and constant estimation.
    """
    scaled = np.log(variances) + power * np.log(np.asarray(orders, dtype=float))
    return float(np.exp(scaled[len(scaled) // 2:].mean()))


class TestFiniteEfficiency:
    def test_optimal_vs_itself(self, ma1):
        w, _ = st.blue_solve(st.system_for(ma1, 8))
        assert st.efficiency_finite(w, ma1).value == pytest.approx(1.0, rel=1e-12)

    def test_lse_under_f1_order_two(self):
        rep = st.efficiency_finite(st.lse_weights(2), st.PowerAtOrigin(1.0))
        assert rep.value == pytest.approx(0.9, rel=1e-12)
        assert rep.numerator_variance == pytest.approx(0.2, rel=1e-12)
        assert rep.denominator_variance == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_lse_under_white_noise_is_one(self, white_noise):
        for n in (1, 7, 33):
            assert st.efficiency_finite(st.lse_weights(n), white_noise).value == pytest.approx(1.0)

    def test_never_exceeds_one(self, ar1):
        for n in (3, 9, 27):
            for w in (st.lse_weights(n), st.adenstedt_weights(n, 0.3),
                      st.parabolic_weights(max(n, 2))):
                assert st.efficiency_finite(w, ar1).value <= 1.0 + 1e-12


class TestOverestimation:
    def test_exact_rationals(self):
        assert st.overestimation_efficiency(0.0, 1) == pytest.approx(5.0 / 6.0, rel=1e-13)
        assert st.overestimation_efficiency(0.0, 2) == pytest.approx(0.7, rel=1e-13)

    def test_beta_zero_collapses(self):
        for alpha in (-0.4, 0.0, 1.7, 10.0):
            assert st.overestimation_efficiency(alpha, 0) == pytest.approx(1.0, rel=1e-13)

    def test_decreasing_in_beta(self):
        for alpha in (-0.25, 0.0, 1.0):
            vals = [st.overestimation_efficiency(alpha, b) for b in range(4)]
            assert np.all(np.diff(vals) < 0)

    def test_limit_one_toward_minus_half(self):
        for beta in (1, 2):
            assert st.overestimation_efficiency(-0.49, beta) > 0.97
            assert st.overestimation_efficiency(-0.499, beta) > 0.995

    def test_large_alpha_limit_is_central_binomial(self):
        # e -> 1/C(2 beta, beta) as alpha grows
        assert st.overestimation_efficiency(500.0, 1) == pytest.approx(0.5, rel=1e-2)

    def test_reproduced_by_variance_ratio(self, white_noise):
        """The mismatched-order estimator attains its predicted limit."""
        n = 1024
        e01 = st.overestimation_efficiency(0.0, 1)
        var_mismatch = st.variance_under(st.adenstedt_weights(n, 1.0), white_noise)
        best = st.adenstedt_variance_closed_form(n, 0.0)
        assert var_mismatch * e01 / best == pytest.approx(1.0, abs=0.02)

    def test_non_integer_beta_rejected(self):
        with pytest.raises(st.ValidationError):
            st.overestimation_efficiency(0.0, -1)


class TestConstantsAgainstMpmath:
    """The closed-form constants against 40-digit gamma functions on a grid
    over (-1/2, 2.5]; each bound is the error measured, rounded up."""

    ALPHAS = np.linspace(-0.49, 2.5, 61)

    @staticmethod
    def _rel(got, want):
        return float(abs(mpmath.mpf(got) - want) / abs(want))

    def test_overestimation(self):
        g = mpmath.gamma
        with mpmath.workdps(40):
            for alpha in self.ALPHAS:
                a = mpmath.mpf(alpha)
                for b in (0, 1, 2, 5):
                    want = (g(2 * a + 2) * g(a + b + 1) ** 2 * g(2 * a + 4 * b + 2)
                            / (mpmath.binomial(2 * b, b) * g(a + 1) * g(a + 2 * b + 1)
                               * g(2 * a + 2 * b + 2) ** 2))
                    assert self._rel(st.overestimation_efficiency(alpha, b), want) < 5e-14

    def test_sample_mean_limit(self):
        with mpmath.workdps(40):
            for alpha in self.ALPHAS[(self.ALPHAS < 0.5) & (self.ALPHAS != 0.0)]:
                a = mpmath.mpf(alpha)
                want = (mpmath.pi * a * (1 - 2 * a)
                        / (mpmath.beta(a + 1, a + 1) * mpmath.sin(mpmath.pi * a)))
                assert self._rel(st.lse_asymptotic_efficiency(alpha), want) < 1e-15

    def test_hyperbolic_constants(self):
        with mpmath.workdps(40):
            for alpha in self.ALPHAS:
                a = mpmath.mpf(alpha)
                want = mpmath.gamma(2 * a + 1) / mpmath.beta(a + 1, a + 1)
                assert self._rel(st.general_class_asymptote(alpha, 1.0), want) < 2e-15
                if abs(alpha - round(alpha)) > 1e-9:
                    want = mpmath.gamma(2 * a + 1) * -mpmath.sin(mpmath.pi * a) / mpmath.pi
                    got = st.covariance_asymptote_falpha(alpha, 1).value
                    assert self._rel(got, want) < 2e-13

    def test_underestimation(self):
        g = st.WhiteNoise(1.0 / TWO_PI)
        with mpmath.workdps(40):
            for a in range(6):
                want = (mpmath.factorial(2 * a + 1) / mpmath.factorial(a)) ** 2 / mpmath.pi
                assert self._rel(st.underestimation_limit(a, g), want) < 5e-16


class TestLseAsymptotic:
    def test_continuity_value_at_zero(self):
        assert st.lse_asymptotic_efficiency(0.0) == 1.0
        assert st.lse_asymptotic_efficiency(1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_quarter(self):
        assert st.lse_asymptotic_efficiency(0.25) == pytest.approx(0.8986, abs=2e-4)

    def test_zero_beyond_half(self):
        for alpha in (0.5, 0.75, 3.0):
            assert st.lse_asymptotic_efficiency(alpha) == 0.0


class TestSamarovTaqqu:
    def test_alpha_zero_is_one(self):
        for n in (2, 17, 333):
            assert st.lse_efficiency_exact_falpha(n, 0.0) == 1.0

    @pytest.mark.parametrize("alpha", [-0.25, 0.25])
    def test_matches_direct_ratio(self, alpha):
        direct = st.efficiency_finite(st.lse_weights(10), st.PowerAtOrigin(alpha)).value
        assert st.lse_efficiency_exact_falpha(10, alpha) == pytest.approx(direct, abs=1e-9)

    def test_decreasing_toward_limit(self):
        vals = [st.lse_efficiency_exact_falpha(n, 0.25) for n in (8, 64, 512, 8192)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] == pytest.approx(st.lse_asymptotic_efficiency(0.25), rel=0.02)


class TestBeranKunsch:
    def test_at_zero(self):
        assert st.beran_kunsch_expansion(0.0) == 1.0

    def test_value(self):
        assert st.beran_kunsch_expansion(-0.05) == pytest.approx(0.9982246703, abs=1e-9)

    def test_agreement_with_exact_limit(self):
        for alpha in (0.05, -0.05):
            assert abs(st.beran_kunsch_expansion(alpha) -
                       st.lse_asymptotic_efficiency(alpha)) <= 1e-3

    def test_range_guard(self):
        with pytest.raises(st.ValidationError):
            st.beran_kunsch_expansion(0.3)


class TestUnderestimationLimit:
    def test_alpha_zero_flat_factor(self):
        value = st.underestimation_limit(0, st.WhiteNoise(1.0))
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_alpha_one_flat_factor(self):
        assert st.underestimation_limit(1, st.WhiteNoise(1.0)) == pytest.approx(72.0, rel=1e-12)

    def test_trig_polynomial_factor(self):
        g = st.Arma(ma=(1.0, 1.0), scale=TWO_PI / 2.0)   # g = (1 + cos lam) * ...
        # integral of g over [-pi, pi] equals its covariance at lag 0
        integral = st.covariance_sequence(g, 0).values[0]
        assert st.underestimation_limit(0, g) == pytest.approx(integral / math.pi, rel=1e-12)

    def test_matches_lse_rate_under_f1(self):
        limit = st.underestimation_limit(0, st.WhiteNoise(1.0))
        n = 4096
        v = st.variance_under(st.lse_weights(n), st.PowerAtOrigin(1.0))
        assert n * n * v == pytest.approx(limit, rel=1e-3)


class TestShortMemoryLimit:
    def test_values(self, white_noise, ma1, ar1):
        assert st.short_memory_variance_limit(white_noise) == pytest.approx(1.0)
        assert st.short_memory_variance_limit(ma1) == pytest.approx(0.25)
        assert st.short_memory_variance_limit(ar1) == pytest.approx(4.0)

    def test_rejects_vanishing_density(self):
        with pytest.raises(st.ValidationError):
            st.short_memory_variance_limit(st.PowerAtOrigin(1.0))

    def test_variance_curve_fits_constant(self, ma1):
        cov = st.covariance_sequence(ma1, 512)
        curve = st.blue_variance_curve(cov)
        orders = np.arange(64, 513)
        fitted = fit_asymptote_constant(orders, curve[orders], 1.0)
        assert fitted == pytest.approx(st.short_memory_variance_limit(ma1), rel=0.02)


class TestGeneralClassAsymptote:
    def test_alpha_zero(self):
        assert st.general_class_asymptote(0.0, 1.0) == pytest.approx(1.0)

    def test_alpha_one_gives_twelve(self):
        assert st.general_class_asymptote(1.0, 1.0) == pytest.approx(12.0, rel=1e-12)
        n = np.arange(512, 2049)
        exact = np.array([st.adenstedt_variance_closed_form(int(k), 1.0) for k in n])
        assert fit_asymptote_constant(n, exact, 3.0) == pytest.approx(12.0, rel=0.01)

    @pytest.mark.parametrize("g0", [0.0, -1.0, math.inf, math.nan])
    def test_g0_must_be_a_positive_real(self, g0):
        with pytest.raises(st.ValidationError, match="g0"):
            st.general_class_asymptote(0.3, g0)

    def test_product_with_short_memory_factor(self, ma1):
        # truth f_alpha * g with g = |1 - 0.5 e^{i lam}|^2, so g(0) = 0.25
        alpha = 0.25
        g0 = TWO_PI * st.evaluate(ma1, 0.0)
        assert g0 == pytest.approx(0.25)
        predicted = st.general_class_asymptote(alpha, g0)
        model = st.Product(st.PowerAtOrigin(alpha), st.Scaled(ma1, TWO_PI))
        curve = st.blue_variance_curve(st.covariance_sequence(model, 4096))
        orders = np.arange(1024, 4097, 64)
        fitted = fit_asymptote_constant(orders, curve[orders], 2 * alpha + 1)
        assert fitted == pytest.approx(predicted, rel=0.03)
