"""Weight constructions and variance evaluation, including optimality."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import statmean as st
from statmean import estimators
from statmean.estimators import random_unbiased_weights
from statmean.quadrature import SINGULAR_PANELS, half_line_grid

TWO_PI = 2.0 * math.pi


class TestWeightFamilies:
    def test_lse_uniform(self):
        assert st.lse_weights(2).coefficients == pytest.approx([1 / 3] * 3)

    def test_parabolic_values(self):
        assert st.parabolic_weights(3).coefficients == pytest.approx([0.0, 0.5, 0.5, 0.0])
        assert st.parabolic_weights(2).coefficients == pytest.approx([0.0, 1.0, 0.0])
        with pytest.raises(st.ValidationError):
            st.parabolic_weights(1)

    def test_parabolic_unit_sum_exact(self):
        for n in (2, 17, 256, 4095):
            assert st.parabolic_weights(n).coefficients.sum() == pytest.approx(1.0, abs=1e-14)

    def test_adenstedt_collapses_to_uniform(self):
        assert np.allclose(st.adenstedt_weights(9, 0.0).coefficients, 0.1)

    def test_adenstedt_beta_values(self):
        w = st.adenstedt_weights(2, 1.0).coefficients
        assert w == pytest.approx([0.3, 0.4, 0.3], abs=1e-14)

    def test_adenstedt_symmetric_and_normalized(self):
        for n, alpha in [(7, -0.45), (64, 0.25), (257, 3.0), (63, 12.5)]:
            w = st.adenstedt_weights(n, alpha).coefficients
            assert np.allclose(w, w[::-1], rtol=0, atol=1e-15)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_adenstedt_equals_optimal_weights(self):
        for n, alpha in [(2, 1.0), (4, 1.0), (16, 0.25), (24, -0.4)]:
            w, _ = st.blue_solve(st.system_for(st.PowerAtOrigin(alpha), n))
            assert np.max(np.abs(w.coefficients -
                                 st.adenstedt_weights(n, alpha).coefficients)) < 1e-10

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.853, 2.5])
    def test_adenstedt_within_an_ulp_of_forty_digits(self, alpha):
        n = 1024
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            c = [mpmath.binomial(n, k) * mpmath.beta(a + k + 1, a + n - k + 1)
                 for k in range(n + 1)]
            total = mpmath.fsum(c)
            want = np.array([float(v / total) for v in c])
        got = st.adenstedt_weights(n, alpha).coefficients
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(st.ValidationError):
            st.EstimatorWeights(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_weights_must_be_finite(self, bad):
        """abs(nan - 1) > tol is false, so the unit-sum check alone lets NaN by."""
        with pytest.raises(st.ValidationError, match="finite"):
            st.EstimatorWeights(np.array([bad, 0.5, 0.5]))

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_adenstedt_alpha_must_be_finite(self, alpha):
        with pytest.raises(st.ValidationError):
            st.adenstedt_weights(3, alpha)
        with pytest.raises(st.ValidationError):
            st.adenstedt_variance_closed_form(3, alpha)

    def test_frozen_with_a_read_only_copy(self):
        given = np.array([0.25, 0.75])
        weights = st.EstimatorWeights(given)
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.coefficients = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            weights.coefficients[0] = 0.5
        given[0] = 0.5                                   # the caller's array stays theirs
        assert weights.coefficients[0] == 0.25


class TestClosedFormVariance:
    def test_order_two(self):
        assert st.adenstedt_variance_closed_form(2, 1.0) == pytest.approx(0.2, rel=1e-13)

    def test_alpha_zero(self):
        for n in (1, 10, 100):
            assert st.adenstedt_variance_closed_form(n, 0.0) == pytest.approx(1.0 / (n + 1))

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_within_an_ulp_of_forty_digits(self, n):
        for alpha in (-0.45, 0.25, 1.3, 1.9, 2.5):
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha)
                want = mpmath.beta(n + 1, 2 * a + 1) / mpmath.beta(a + 1, a + 1)
                got = st.adenstedt_variance_closed_form(n, alpha)
                assert abs(got - want) <= np.spacing(got), alpha

    def test_stirling_asymptote(self):
        n = 4096
        alpha = 0.25
        limit = st.general_class_asymptote(alpha, 1.0)
        exact = st.adenstedt_variance_closed_form(n, alpha)
        assert exact * n ** (2 * alpha + 1) == pytest.approx(limit, rel=0.01)


class TestGegenbauer:
    @pytest.mark.parametrize("n,alpha", [(2, 1.0), (8, 0.5), (16, -0.25)])
    def test_matches_beta_route(self, n, alpha):
        g = st.gegenbauer_optimal(n, alpha)
        w = st.adenstedt_weights(n, alpha).coefficients
        assert np.max(np.abs(g - w)) < 1e-9

    def test_alpha_zero_is_uniform(self):
        assert np.allclose(st.gegenbauer_optimal(12, 0.0), 1.0 / 13)

    def test_two_point_symmetry(self):
        for alpha in (-0.3, 0.7, 2.0):
            assert st.gegenbauer_optimal(1, alpha) == pytest.approx([0.5, 0.5])


class TestPseudoBest:
    def test_design_equals_truth_gives_unit_efficiency(self, ma1):
        w = st.pseudo_best_weights(ma1, 12)
        rep = st.efficiency_finite(w, ma1)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_constant_design_is_sample_mean(self, white_noise):
        w = st.pseudo_best_weights(white_noise, 6)
        assert np.allclose(w.coefficients, 1.0 / 7)
        v = st.variance_under(w, st.PowerAtOrigin(1.0))
        assert v == pytest.approx(2.0 / 49.0, rel=1e-12)

    def test_power_design_asymptotically_efficient_for_products(self, ma1):
        """Design f_alpha, truth f_alpha * g: efficiency climbs toward 1."""
        truth = st.Product(st.PowerAtOrigin(0.25), ma1)
        values = []
        for n in (16, 64, 256):
            w = st.pseudo_best_weights(st.PowerAtOrigin(0.25), n)
            values.append(st.efficiency_finite(w, truth).value)
        assert values[-1] > values[0]
        assert values[-1] > 0.98

    def test_deterministic_design_rejected(self):
        with pytest.raises(st.ValidationError):
            st.pseudo_best_weights(st.ArcSupported(1.0, 1.0), 4)


class TestFejerKernel:
    def test_nonnegative_and_normalized(self):
        for order in (1, 2, 9, 64):
            kern = st.FejerKernel(order)
            lam, w = half_line_grid({0.0: SINGULAR_PANELS}, osc_k=order + 1)
            vals = kern(lam)
            assert np.all(vals >= 0.0)
            assert 2.0 * float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-10)

    def test_peak_value(self):
        assert st.FejerKernel(5)(np.array(0.0)) == pytest.approx(5 / TWO_PI)


class TestVarianceUnder:
    def test_lse_f1_both_routes(self):
        assert st.variance_under(st.lse_weights(2), st.PowerAtOrigin(1.0)) == pytest.approx(
            2.0 / 9.0, rel=1e-12)

    def test_parabolic_f1_closed_form(self):
        for n in (3, 8, 33):
            v = st.variance_under(st.parabolic_weights(n), st.PowerAtOrigin(1.0))
            assert v == pytest.approx(12.0 / (n * (n * n - 1.0)), rel=1e-12)

    def test_adenstedt_under_white_noise(self, white_noise):
        v = st.variance_under(st.adenstedt_weights(2, 1.0), white_noise)
        assert v == pytest.approx(0.34, rel=1e-13)

    def test_atom_dominates_lse_variance(self, atom_measure):
        values = [st.variance_under(st.lse_weights(n), atom_measure) for n in (8, 64, 512)]
        assert np.all(np.diff(values) < 0)
        assert values[-1] == pytest.approx(0.5, rel=0.01)

    def test_lse_kernel_route_with_offset_atom(self, white_noise):
        measure = st.SpectralMeasure(white_noise, ((math.pi / 2, 0.8),))
        n = 7
        direct = st.variance_under(st.lse_weights(n), measure)
        transfer = (math.sin((n + 1) * math.pi / 4) / ((n + 1) * math.sin(math.pi / 4))) ** 2
        assert direct == pytest.approx(1.0 / (n + 1) + 0.8 * transfer, rel=1e-10)

    def test_underestimation_rate_for_lse(self):
        """n^2 Var under the quadratic-zero density approaches 2."""
        for n in (64, 512, 4096):
            v = st.variance_under(st.lse_weights(n), st.PowerAtOrigin(1.0))
            assert n * n * v == pytest.approx(2.0 * n * n / (n + 1.0) ** 2, abs=1e-12)
        assert 4096 ** 2 * v == pytest.approx(2.0, rel=1e-3)

    def test_uniform_weights_get_the_kernel_check(self, monkeypatch):
        """The cross-check reads the coefficients: any uniform vector is the
        sample mean, however it was built."""
        exact = estimators._lse_fejer_variance
        monkeypatch.setattr(estimators, "_lse_fejer_variance",
                            lambda measure, n: exact(measure, n) + 1e-6)
        with pytest.raises(st.AccuracyError):
            st.variance_under(st.EstimatorWeights(np.full(5, 0.2)), st.PowerAtOrigin(1.0))

    def test_kernel_route_runs_once_per_measure_and_order(self):
        """`efficiency_finite` reads the cross-check `variance_under` just ran:
        measures compare by value, so one built anew hits too."""
        estimators._lse_fejer_variance.cache_clear()
        st.variance_under(st.lse_weights(64), st.FgnDensity(0.7))
        st.efficiency_finite(st.lse_weights(64), st.SpectralMeasure(st.FgnDensity(0.7)))
        info = estimators._lse_fejer_variance.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_other_weights_skip_the_kernel_route(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimators, "_lse_fejer_variance",
                            lambda *args: calls.append(args))
        st.variance_under(st.parabolic_weights(8), st.PowerAtOrigin(1.0))
        assert calls == []


class TestOptimality:
    MEASURES = {
        "white": st.WhiteNoise(1.0 / TWO_PI),
        "ma1": st.Arma((1.0, -0.5)),
        "ar1": st.Arma((1.0,), (1.0, -0.5)),
        "f025": st.PowerAtOrigin(0.25),
        "fgn": st.FgnDensity(0.7),
        "atom": st.SpectralMeasure(st.WhiteNoise(1.0 / TWO_PI), ((0.0, 0.5),)),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_no_random_unbiased_vector_beats_optimum(self, name):
        measure = self.MEASURES[name]
        n = 24
        _, best = st.blue_solve(st.system_for(measure, n))
        cov = st.covariance_sequence(measure, n)
        rng = np.random.default_rng(20260809)
        for _ in range(100):
            w = random_unbiased_weights(n, rng)
            assert best <= st.quadratic_form(w, cov) + 1e-12

    def test_parabolic_asymptotically_efficient_for_quadratic_zero(self):
        """Ratio optimal/parabolic under the quadratic-zero density tends to 1.

        The two closed forms index the sample differently (the optimal
        variance by observation count, the parabolic by order); at matched
        display index 257 the ratio is (n-1)/(n+2) >= 0.98, and it keeps
        rising at matched sample sizes.
        """
        f1 = st.PowerAtOrigin(1.0)
        best_257_obs = st.adenstedt_variance_closed_form(256, 1.0)
        parab_257 = st.variance_under(st.parabolic_weights(257), f1)
        assert best_257_obs / parab_257 == pytest.approx(256.0 / 259.0, rel=1e-10)
        assert best_257_obs / parab_257 >= 0.98

        same_order = [st.adenstedt_variance_closed_form(n, 1.0) /
                      st.variance_under(st.parabolic_weights(n), f1)
                      for n in (256, 1024, 4096)]
        assert np.all(np.diff(same_order) > 0)
        assert same_order[-1] > 0.998


class TestUnderestimationWithFactor:
    def test_sample_mean_rate_under_quadratic_zero_times_polynomial(self):
        """n^2 Var(LSE) under f_1 * g tends to (1/pi) * integral of g."""
        g_model = st.Scaled(st.Arma((1.0, 0.5)), TWO_PI)   # g = |1 + 0.5 z|^2
        f = st.Product(st.PowerAtOrigin(1.0), g_model)
        integral_g = st.covariance_sequence(g_model, 0).values[0]
        limit = integral_g / math.pi
        assert limit == pytest.approx(2.5, rel=1e-12)
        assert st.underestimation_limit(0, g_model) == pytest.approx(limit, rel=1e-12)
        n = 4096
        v = st.variance_under(st.lse_weights(n), f)
        assert n * n * v == pytest.approx(limit, rel=0.02)
