"""Orthogonal-polynomial recursion, reciprocal kernels, and the outer function."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import statmean as st
from statmean import opuc, toeplitz
from statmean.opuc import christoffel_curve, poisson_weighted_geometric_mean
from tests.conftest import dense_blue, dense_christoffel, gram_schmidt_verblunsky

TWO_PI = 2.0 * math.pi
LEBESGUE = st.WhiteNoise(1.0)  # density identically 1


class TestRecursion:
    def test_lebesgue_measure_monomials(self):
        state = st.szego_recursion(LEBESGUE, 12, probes=(1.0, 0.5 + 0.1j))
        assert np.max(np.abs(state.verblunsky)) == 0.0
        # orthonormal values z^k / sqrt(2 pi)
        probe = 0.5 + 0.1j
        expected = np.array([probe ** k for k in range(13)]) / math.sqrt(TWO_PI)
        assert np.allclose(state.phi_at_probes[probe], expected)

    def test_explicit_polynomials_for_f1(self):
        state = st.szego_recursion(st.PowerAtOrigin(1.0), 8, probes=(1.0,))
        v = np.arange(9)
        squared = np.abs(state.phi_at_probes[1.0 + 0.0j]) ** 2
        assert np.allclose(squared, (v + 1) * (v + 2) / 4.0, rtol=1e-12)

    def test_verblunsky_against_dense_oracle_with_atom(self, atom_measure):
        n = 32
        r = st.covariance_sequence(atom_measure, n).values
        state = st.szego_recursion(atom_measure, n)
        oracle = gram_schmidt_verblunsky(r, n)
        assert np.max(np.abs(state.verblunsky - oracle)) < 1e-9

    def test_norm_recurrence(self, ma1):
        state = st.szego_recursion(ma1, 16)
        ratio = state.monic_norms[1:] / state.monic_norms[:-1]
        assert np.allclose(ratio, 1.0 - state.verblunsky ** 2)
        assert np.all(np.diff(state.monic_norms) <= 1e-15)

    def test_near_trivial_measure_detected(self):
        # five atoms support a rank-5 moment matrix: order 8 must break down
        atoms = tuple((0.3 * j + 0.1, 1.0) for j in range(5))
        measure = st.SpectralMeasure(st.WhiteNoise(0.0), atoms)
        with pytest.raises((st.NearTrivialMeasureError, st.ValidationError)):
            st.szego_recursion(measure, 4)


class TestImmutable:
    def test_state_and_outer_function_are_read_only(self):
        """No field of a result can be assigned and no array written into."""
        state = st.szego_recursion(st.Arma((1.0, -0.5)), 8, probes=(1.0,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.order = 9
        for array in (state.verblunsky, state.monic_norms, state.moments,
                      state.phi_at_probes[1.0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(TypeError):
            state.phi_at_probes[0.5] = state.phi_at_probes[1.0]
        outer = st.szego_function(st.Arma((1.0, -0.5)), 0.3)
        with pytest.raises(ValueError, match="read-only"):
            outer.log_fourier[0] = 0.0


class TestChristoffel:
    def test_lebesgue_value(self):
        state = st.szego_recursion(LEBESGUE, 10, probes=(1.0,))
        for m in (0, 3, 10):
            assert st.christoffel(state, 1.0, m) == pytest.approx(TWO_PI / (m + 1), rel=1e-12)

    def test_f1_matches_toeplitz(self):
        state = st.szego_recursion(st.PowerAtOrigin(1.0), 2, probes=(1.0,))
        assert st.christoffel(state, 1.0, 2) == pytest.approx(0.2, rel=1e-12)

    def test_atom_limit(self):
        measure = st.SpectralMeasure(LEBESGUE, ((0.0, 0.7),))
        state = st.szego_recursion(measure, 256, probes=(1.0,))
        curve = christoffel_curve(state, 1.0)
        assert np.all(np.diff(curve) <= 1e-12)        # non-increasing
        # rank-one structure gives the closed form 2 pi/(m+1) + mass exactly
        m = np.arange(257)
        assert np.allclose(curve, TWO_PI / (m + 1) + 0.7, rtol=1e-12)
        assert curve[256] > 0.7                       # decreasing toward the point mass

    @pytest.mark.parametrize("probe", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_probe_rejected(self, probe):
        with pytest.raises(st.ValidationError, match="finite"):
            st.szego_recursion(LEBESGUE, 4, probes=(1.0, probe))

    def test_unregistered_probe_rejected(self):
        state = st.szego_recursion(LEBESGUE, 4, probes=(1.0,))
        with pytest.raises(st.ValidationError):
            st.christoffel(state, 0.5, 2)

    @pytest.mark.parametrize("measure_name", ["white", "ma1", "ar1", "f025", "f1", "atom"])
    def test_equals_optimal_variance(self, measure_name, white_noise, ma1, ar1, atom_measure):
        measure = {"white": white_noise, "ma1": ma1, "ar1": ar1,
                   "f025": st.PowerAtOrigin(0.25), "f1": st.PowerAtOrigin(1.0),
                   "atom": atom_measure}[measure_name]
        state = st.szego_recursion(measure, 64, probes=(1.0,))
        lam = christoffel_curve(state, 1.0)
        variances = st.blue_variance_curve(st.covariance_sequence(measure, 64))
        assert np.max(np.abs(lam / variances - 1.0)) < 1e-10

    def test_measure_monotonicity(self):
        # larger measure => smaller diagonal kernel S_m = 1/lambda_m
        small = st.SpectralMeasure(LEBESGUE)
        large = st.SpectralMeasure(LEBESGUE, ((0.0, 0.4),))
        s1 = st.szego_recursion(small, 32, probes=(1.0,))
        s2 = st.szego_recursion(large, 32, probes=(1.0,))
        kernel1 = 1.0 / christoffel_curve(s1, 1.0)
        kernel2 = 1.0 / christoffel_curve(s2, 1.0)
        assert np.all(kernel2 <= kernel1 + 1e-12)

    def test_boundary_rescaled_limit(self, ma1):
        """(m+1) * lambda_m(e^{i lam}) -> 2 pi f(lam) off the origin."""
        probe = complex(np.exp(1j * math.pi / 3))
        m = 2048
        state = st.szego_recursion(ma1, m, probes=(probe,))
        value = (m + 1) * st.christoffel(state, probe, m)
        assert value == pytest.approx(TWO_PI * st.evaluate(ma1, math.pi / 3), rel=0.02)

    def test_fisher_hartwig_orthonormal_growth(self):
        """|phi_m| at the singular angle grows like m^exponent."""
        exponent = 0.3
        model = st.FisherHartwig(st.WhiteNoise(1.0 / TWO_PI),
                                 ((math.pi / 2, exponent), (-math.pi / 2, exponent)))
        probe = complex(np.exp(1j * math.pi / 2))
        state = st.szego_recursion(model, 1024, probes=(probe,))
        values = np.abs(state.phi_at_probes[probe])
        ms = np.arange(64, 1025)
        slope = np.polyfit(np.log(ms), np.log(values[64:]), 1)[0]
        assert abs(slope - exponent) < 0.1


class TestOptimalPolynomial:
    def test_white_noise_uniform(self, white_noise):
        state = st.szego_recursion(white_noise, 6)
        assert np.allclose(st.optimal_polynomial(state, 6), 1.0 / 7)

    def test_f1_matches_blue_weights(self):
        state = st.szego_recursion(st.PowerAtOrigin(1.0), 2)
        assert st.optimal_polynomial(state, 2) == pytest.approx([0.3, 0.4, 0.3], abs=1e-12)

    def test_matches_ultraspherical_route(self):
        state = st.szego_recursion(st.PowerAtOrigin(1.0), 16)
        for m in (4, 9, 16):
            mine = st.optimal_polynomial(state, m)
            other = st.gegenbauer_optimal(m, 1.0)
            assert np.max(np.abs(mine - other)) < 1e-9

    @pytest.mark.parametrize("alpha", [1.3, 1.9])
    def test_refined_like_blue_solve(self, alpha):
        """Both routes to the optimal weights read one refined solution: the
        unrefined pass is 1.2e-5 off the closed form at alpha = 1.9, n = 4096."""
        model = st.PowerAtOrigin(alpha)
        weights = st.blue_solve(st.system_for(model, 4096))[0].coefficients
        mine = st.optimal_polynomial(st.szego_recursion(model, 4096), 4096)
        np.testing.assert_allclose(mine, weights, rtol=1e-15, atol=0.0)
        exact = st.adenstedt_weights(4096, alpha).coefficients
        assert np.max(np.abs(mine / exact - 1.0)) <= 2e-9

    def test_value_one_at_unit(self, ar1):
        state = st.szego_recursion(ar1, 20)
        coeffs = st.optimal_polynomial(state, 20)
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPredictionError:
    def test_unit_white_noise(self, white_noise):
        state = st.szego_recursion(white_noise, 8)
        for m in range(9):
            assert st.prediction_error(state, m) == pytest.approx(1.0, rel=1e-13)

    def test_ar1_reaches_limit_exactly(self, ar1):
        state = st.szego_recursion(ar1, 8)
        assert st.prediction_error(state, 0) == pytest.approx(4.0 / 3.0, rel=1e-10)
        for m in (1, 2, 8):
            assert st.prediction_error(state, m) == pytest.approx(1.0, rel=1e-10)
        assert TWO_PI * st.geometric_mean(ar1) == pytest.approx(1.0, rel=1e-10)

    def test_f1_closed_form_and_limit(self):
        state = st.szego_recursion(st.PowerAtOrigin(1.0), 64)
        m = np.arange(65)
        errors = np.array([st.prediction_error(state, int(k)) for k in m])
        assert np.allclose(errors, (m + 2) / (m + 1), rtol=1e-10)
        assert TWO_PI * st.geometric_mean(st.PowerAtOrigin(1.0)) == pytest.approx(1.0, rel=1e-9)


class TestDiskLimits:
    def test_lebesgue(self):
        for xi in (0.0, 0.5, 0.3 - 0.4j):
            expected = TWO_PI * (1.0 - abs(xi) ** 2)
            assert st.christoffel_limit_in_disk(LEBESGUE, xi) == pytest.approx(expected, rel=1e-9)

    def test_center_reduces_to_geometric_mean(self, ma1):
        assert st.christoffel_limit_in_disk(ma1, 0.0) == pytest.approx(
            TWO_PI * st.geometric_mean(ma1), rel=1e-9)

    def test_divergent_log_integral_gives_zero(self):
        assert st.christoffel_limit_in_disk(st.ArcSupported(1.0, 1.0), 0.2) == 0.0

    def test_boundary_rejected(self, ma1):
        with pytest.raises(st.ValidationError):
            st.christoffel_limit_in_disk(ma1, 1.0)

    def test_recursion_converges_to_limit(self, ma1):
        xi = 0.5
        state = st.szego_recursion(ma1, 128, probes=(xi,))
        limit = st.christoffel_limit_in_disk(ma1, xi)
        assert st.christoffel(state, xi, 128) == pytest.approx(limit, rel=1e-6)

    def test_poisson_mean_reduces_at_center(self, ar1):
        assert poisson_weighted_geometric_mean(ar1, 0.0) == pytest.approx(
            st.geometric_mean(ar1), rel=1e-9)


class TestSzegoFunction:
    def test_constant_density(self, white_noise):
        for z in (0.0, 0.4, 0.2 + 0.3j):
            ev = st.szego_function(white_noise, z)
            assert ev.value == pytest.approx((TWO_PI) ** -0.5, rel=1e-12)

    def test_center_value_squared_is_geometric_mean(self, ma1, ar1):
        for model in (ma1, ar1, st.Arma((1.0, 0.3, 0.1))):
            ev = st.szego_function(model, 0.0)
            assert ev.value.imag == pytest.approx(0.0, abs=1e-12)
            assert ev.value.real > 0
            assert ev.value.real ** 2 == pytest.approx(st.geometric_mean(model), rel=1e-9)

    def test_boundary_modulus_recovers_density(self, ma1):
        lam0 = 0.9
        z = 0.9995 * np.exp(1j * lam0)
        ev = st.szego_function(ma1, complex(z))
        assert abs(ev.value) ** 2 == pytest.approx(st.evaluate(ma1, lam0), rel=2e-3)

    def test_leading_coefficients_converge_to_outer_value(self, ma1):
        """kappa_m -> 1 / (sqrt(2 pi) D(f, 0)): the plain-moment normalization
        puts a 2 pi between the recursion and the outer function."""
        state = st.szego_recursion(ma1, 256)
        ev = st.szego_function(ma1, 0.0)
        target = 1.0 / (math.sqrt(TWO_PI) * ev.value.real)
        assert state.kappa(256) == pytest.approx(target, abs=1e-6)

    def test_divergent_log_integral_rejected(self):
        with pytest.raises(st.ValidationError):
            st.szego_function(st.FlatZero(1.5), 0.0)


class TestNearTrivial:
    def test_rank_deficient_atom_measure_names_the_order(self):
        # ten atom entries collapsing to four symmetric pairs = eight support
        # points: the order-8 recursion must stall at its last coefficient
        eps = 1e-13
        groups = [0.4, 1.0, 1.8, 2.6]
        angles = [g + j * eps for g in groups[:2] for j in range(3)]
        angles += [g + j * eps for g in groups[2:] for j in range(2)]
        measure = st.SpectralMeasure(st.WhiteNoise(0.0), tuple((a, 1.0) for a in angles))
        with pytest.raises(st.NearTrivialMeasureError) as err:
            st.szego_recursion(measure, 8)
        assert err.value.index == 7


class TestViewOfLevinsonPass:
    """The recursion is read off the Toeplitz pass; dense oracles stay independent."""

    @pytest.fixture(params=["ma1", "ar1", "fgn", "f025", "f19", "atom"])
    def measure(self, request, ma1, ar1, atom_measure):
        return {"ma1": ma1, "ar1": ar1, "fgn": st.FgnDensity(0.8),
                "f025": st.PowerAtOrigin(0.25), "f19": st.PowerAtOrigin(1.9),
                "atom": atom_measure}[request.param]

    def test_coefficients_and_norms_are_the_pass_bitwise(self, measure):
        r = st.covariance_sequence(measure, 512).values
        state = st.szego_recursion(measure, 512)
        assert state.verblunsky.tobytes() == (-toeplitz.reflection_coefficients(r)).tobytes()
        assert state.monic_norms.tobytes() == toeplitz.levinson_pass(r).errors.tobytes()

    def test_no_second_pass_after_the_variance_curve(self, monkeypatch):
        calls = []
        kernel = toeplitz._levinson
        monkeypatch.setattr(toeplitz, "_levinson", lambda *a: calls.append(a) or kernel(*a))
        toeplitz._pass.cache_clear()
        measure = st.FgnDensity(0.7)
        st.blue_variance_curve(st.covariance_sequence(measure, 300))
        state = st.szego_recursion(measure, 300, probes=(1.0,))
        st.optimal_polynomial(state, 300)
        assert len(calls) == 1

    @pytest.mark.parametrize("probe", [0.5 + 0.2j, complex(np.exp(0.7j))])
    def test_christoffel_against_dense_oracle(self, measure, probe):
        state = st.szego_recursion(measure, 64, probes=(probe,))
        for m in (0, 1, 7, 33, 64):
            assert st.christoffel(state, probe, m) == pytest.approx(
                dense_christoffel(state.moments, probe, m), rel=1e-10)

    def test_optimal_polynomial_below_the_order_against_dense_oracle(self, measure):
        state = st.szego_recursion(measure, 64)
        for m in (1, 5, 33, 63):
            weights, _ = dense_blue(state.moments, m)
            assert np.max(np.abs(st.optimal_polynomial(state, m) - weights)) < 1e-10

    def test_breakdown_of_the_pass_is_a_trivial_measure(self):
        measure = st.ArcSupported(math.pi / 2, 1.0 / TWO_PI)
        entry = toeplitz.levinson_pass(st.covariance_sequence(measure, 40).values)
        with pytest.raises(st.NearTrivialMeasureError) as trivial:
            st.szego_recursion(measure, 40)
        partial = np.abs(entry.refl)               # up to the offending one
        assert entry.x is None and len(partial) == len(entry.curve)
        assert trivial.value.index == np.flatnonzero(partial >= 1.0 - 1e-13)[0]

    def test_first_coefficient_past_the_bound_is_named(self, monkeypatch):
        # a pass breaking down at order 3 after a coefficient inside (1 - 1e-13, 1)
        partial = np.array([0.5, 1.0 - 5e-14, 1.0 - 1e-15])

        def broken(r):
            return toeplitz._LevinsonPass(None, partial, np.ones(3), np.ones(3), None,
                                          "breakdown")

        monkeypatch.setattr(opuc, "levinson_pass", broken)
        with pytest.raises(st.NearTrivialMeasureError) as trivial:
            st.szego_recursion(LEBESGUE, 4)
        assert trivial.value.index == 1
