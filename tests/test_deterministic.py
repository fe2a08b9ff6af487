"""Minimax polynomials on arc regions and variance-decay diagnostics."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

import statmean as st
from statmean import deterministic, toeplitz
from statmean.deterministic import ArcRegion

COS_BOUND = math.cos(math.pi / 4)


class TestArcRegion:
    def test_normalization_merges_overlaps(self):
        region = ArcRegion(((0.0, 1.0), (0.5, 2.0), (-3.0, -2.5)))
        assert region.arcs == ((-3.0, -2.5), (0.0, 2.0))

    def test_contains_one_flag(self):
        assert ArcRegion(((-0.5, 0.5),)).contains_one
        assert not ArcRegion.complement_arc(math.pi / 2).contains_one

    def test_validation(self):
        with pytest.raises(st.ValidationError):
            ArcRegion(((2.0, 1.0),))
        with pytest.raises(st.ValidationError):
            ArcRegion.complement_arc(0.0)

    def test_grid_stays_inside(self):
        region = ArcRegion.complement_arc(1.0)
        grid = region.grid(1000)
        assert np.all((np.abs(grid) >= 1.0) & (np.abs(grid) <= math.pi))


class TestChebyshevMinMax:
    def test_full_circle_deviation_is_one(self):
        for n in (2, 8, 16):
            sol = st.chebyshev_min_max(ArcRegion.full_circle(), n)
            assert sol.deviation == pytest.approx(1.0, abs=1e-4)
            assert sol.constant_estimate == pytest.approx(1.0, abs=1e-3)

    def test_arcs_containing_one_stay_near_one(self):
        region = ArcRegion(((-1.0, 1.0),))
        sol = st.chebyshev_min_max(region, 64)
        assert sol.constant_estimate == pytest.approx(1.0, abs=0.02)
        # discretization can shave O((n/M)^2) off the continuum value 1
        assert sol.constant_estimate >= 1.0 - 5e-4

    def test_value_one_at_unit_point(self):
        for n in (11, 12):                       # Lawson, closed form
            sol = st.chebyshev_min_max(ArcRegion.complement_arc(1.0), n)
            assert sol(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_explicit_candidate_certifies_bound(self):
        """((z+1)/2)^n has modulus cos(lam/2)^n; the solver must do at least as well."""
        region = ArcRegion.complement_arc(math.pi / 2)
        for n in (2, 4, 8, 16, 32):
            sol = st.chebyshev_min_max(region, n)
            assert sol.deviation <= COS_BOUND ** n + 1e-9
        sol4 = st.chebyshev_min_max(region, 4)
        assert sol4.deviation <= 0.25

    def test_monotone_set_function(self):
        inner = ArcRegion.complement_arc(2.0)
        outer = ArcRegion.complement_arc(1.0)
        for n in (4, 12):
            dev_inner = st.chebyshev_min_max(inner, n).deviation
            dev_outer = st.chebyshev_min_max(outer, n).deviation
            assert dev_inner <= dev_outer + 1e-9

    def test_non_convergence_reports_upper_bound(self):
        region = ArcRegion.complement_arc(math.pi / 2)
        grid = region.grid(20000)
        for sol in (st.chebyshev_min_max(region, 24), deterministic._lawson(region, 24)):
            # whether or not the loop converged, the deviation is a real max-modulus
            vals = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * grid), sol.coefficients))
            assert vals.max() <= sol.deviation * (1.0 + 1e-6) + 1e-12


def _rho(edge):
    """Green-function constant of the gap {edge <= |lambda| <= pi} at z = 1."""
    return math.tan((math.pi - edge) / 4.0)


class TestSymmetricGapClosedForm:
    EDGES = (0.25, 0.3, 0.45, 0.5, 0.6, 0.7, 0.8)
    ORDERS = (2, 4, 8, 16, 24, 32)

    def test_unit_value_and_exact_deviation(self):
        for frac in self.EDGES:
            region = ArcRegion.complement_arc(frac * math.pi)
            rho = _rho(frac * math.pi)
            for n in self.ORDERS:
                sol = st.chebyshev_min_max(region, n)
                assert (sol.iterations, sol.converged) == (0, True)
                assert abs(sol(1.0) - 1.0) <= 1e-13
                exact = 2.0 * rho ** n / (1.0 + rho ** (2 * n))
                assert sol.deviation == pytest.approx(exact, rel=1e-12, abs=0.0)
                assert sol.constant_estimate == pytest.approx(exact ** (1.0 / n), rel=1e-12)

    def test_grid_maximum_within_evaluation_floor(self):
        """Past eps * sum|c_k| the double coefficients cannot show the
        deviation (0.7 pi at n = 32 reads about 1.9e3 times it), so the
        maximum is bounded by the deviation plus that floor."""
        eps = np.finfo(float).eps
        for frac in self.EDGES:
            region = ArcRegion.complement_arc(frac * math.pi)
            z = np.exp(1j * region.grid(20000))
            for n in self.ORDERS:
                sol = st.chebyshev_min_max(region, n)
                peak = np.abs(sol(z)).max()
                assert peak <= sol.deviation + 8.0 * eps * np.abs(sol.coefficients).sum()

    @pytest.mark.parametrize("frac", [0.3, 0.5])
    def test_not_above_lawson(self, frac):
        region = ArcRegion.complement_arc(frac * math.pi)
        for n in (8, 16):
            lawson = deterministic._lawson(region, n)
            assert lawson.iterations > 0
            assert st.chebyshev_min_max(region, n).deviation <= lawson.deviation

    def test_deviation_below_the_double_range_is_refused(self):
        """At 0.99 pi, n = 200 the deviation is about 1e-421: refused by name,
        with no overflow warning on the way.  The last even order whose
        deviation is a normal double still takes the closed form, as does
        0.9 pi at n = 100 (7.9e-111)."""
        edge = 0.99 * math.pi
        region = ArcRegion.complement_arc(edge)
        xi = (3.0 - math.cos(edge)) / (1.0 + math.cos(edge))
        last = 2 * int(1023 * math.log(2.0) / math.acosh(xi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(st.AccuracyError,
                               match=r"~ 1e-421 at n = 200 is below what double can represent"):
                st.chebyshev_min_max(region, 200)
            with pytest.raises(st.AccuracyError, match="below what double can represent"):
                st.chebyshev_min_max(region, last + 2)
            edge_sol = st.chebyshev_min_max(region, last)
            sol = st.chebyshev_min_max(ArcRegion.complement_arc(0.9 * math.pi), 100)
        assert 0.0 < edge_sol.deviation < 1e-300 and abs(edge_sol(1.0) - 1.0) <= 1e-13
        rho = _rho(0.9 * math.pi)
        assert sol.deviation == pytest.approx(2.0 * rho ** 100 / (1.0 + rho ** 200), rel=1e-12)
        assert abs(sol(1.0) - 1.0) <= 1e-13

    def test_odd_order_past_the_double_range_is_refused(self, monkeypatch):
        """E_199 <= E_198, about 1e-416, so n = 199 is refused before any
        Lawson step runs."""
        region = ArcRegion.complement_arc(0.99 * math.pi)
        monkeypatch.setattr(deterministic, "_lawson", lambda *args: pytest.fail("Lawson ran"))
        with pytest.raises(st.AccuracyError, match=r"~ 1e-416 at n = 198, which bounds it "
                                                   r"at n = 199, is below what double"):
            st.chebyshev_min_max(region, 199)

    def test_odd_orders_and_other_regions_iterate(self):
        gap = ArcRegion.complement_arc(math.pi / 2)
        lopsided = ArcRegion(((-math.pi, -1.0), (1.2, math.pi)))
        for region, n in ((gap, 5), (gap, 9), (lopsided, 6), (ArcRegion.full_circle(), 4)):
            assert st.chebyshev_min_max(region, n).iterations > 0


class TestValuesAreImmutable:
    def test_chebyshev_solution(self):
        coeffs = np.array([0.5, 0.5])
        sol = deterministic.ChebyshevSolution(1, coeffs, 1.0, 1.0, 0, True)
        coeffs[0] = 2.0
        assert sol.coefficients[0] == 0.5
        with pytest.raises(ValueError):
            sol.coefficients[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.deviation = 0.0

    def test_decay_report(self):
        rep = st.decay_rate_from_variances(st.PowerAtOrigin(1.0), range(8, 33, 8))
        for arr in (rep.orders, rep.sigmas):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.rho = 0.0


class TestChebyshevConstant:
    def test_full_circle(self):
        tau, _ = st.chebyshev_constant_estimate(ArcRegion.full_circle(), (4, 8, 12))
        assert tau == pytest.approx(1.0, abs=1e-3)

    def test_complement_arc_bounds(self):
        tau, curve = st.chebyshev_constant_estimate(
            ArcRegion.complement_arc(math.pi / 2), range(8, 25, 4))
        assert tau <= COS_BOUND + 0.02
        seq = [c.constant_estimate for c in curve]
        assert max(seq) - min(seq[len(seq) // 2:]) <= 0.05   # bounded oscillation

    def test_wider_gap_decays_faster(self):
        tau, _ = st.chebyshev_constant_estimate(
            ArcRegion.complement_arc(2 * math.pi / 3), range(8, 21, 4))
        assert tau <= math.cos(math.pi / 3) + 0.02


class TestDecayRate:
    def test_arc_supported_matches_minimax_constant(self):
        measure = st.ArcSupported(math.pi / 2, 1.0 / (2 * math.pi))
        report = st.decay_rate_from_variances(measure, range(8, 97, 8))
        assert report.neutrality == "ExponentiallyDecreasing"
        assert report.precision == "dd"
        assert report.warning is not None           # grid truncation expected
        assert report.rho <= COS_BOUND + 0.02
        tau, _ = st.chebyshev_constant_estimate(
            ArcRegion.complement_arc(math.pi / 2), range(8, 33, 4))
        assert abs(report.rho - tau) <= 0.03

    @pytest.mark.parametrize("frac", [round(f, 3) for f in np.linspace(0.25, 0.70, 10)])
    def test_arc_fit_stops_at_the_dd_floor(self, frac):
        """Past u * nmax * r(0) the dd variances are rounding noise; fitted
        above it the ratio reaches the exact constant."""
        edge = frac * math.pi
        report = st.decay_rate_from_variances(st.ArcSupported(edge, 1.0 / (2 * math.pi)),
                                              range(8, 97, 8))
        assert abs(report.rho - _rho(edge)) <= 1e-3
        assert report.neutrality == "ExponentiallyDecreasing"
        assert report.precision == "dd"
        assert "below the extended rounding floor" in report.warning

    @pytest.mark.parametrize("frac", [0.25, 0.3, 0.4, 0.5])
    def test_dd_reflections_reach_the_geronimus_limit(self, frac):
        edge = frac * math.pi
        cov = st.covariance_sequence(st.ArcSupported(edge, 1.0 / (2 * math.pi)), 32,
                                     precision="dd")
        refl = np.array(toeplitz.levinson_pass(cov.values, cov.lo).refl, dtype=float)
        assert abs(abs(refl[31]) - math.sin(edge / 2.0)) <= 1e-3

    def test_hyperbolic_models_are_neutral(self):
        for alpha in (1.0, 2.0):
            report = st.decay_rate_from_variances(st.PowerAtOrigin(alpha), range(8, 97, 8))
            assert report.neutrality == "ExponentiallyNeutral"
            ratios = report.sigmas[1:] / report.sigmas[:-1]
            assert np.all(np.diff(ratios) > 0)       # climbing toward 1

    def test_flat_zero_neutral_on_reachable_grid(self):
        report = st.decay_rate_from_variances(st.FlatZero(1.5), range(16, 129, 16),
                                              precision="auto")
        assert report.neutrality == "ExponentiallyNeutral"
        assert report.precision == "dd"

    def test_forced_double_truncates_with_warning(self):
        measure = st.ArcSupported(math.pi / 2, 1.0 / (2 * math.pi))
        report = st.decay_rate_from_variances(measure, range(4, 41, 4), precision="double")
        assert report.warning is not None
        assert report.orders[-1] < 40
        assert report.rho == pytest.approx(0.414, abs=0.05)
        assert report.warning.startswith("grid truncated at order 18: variance at order 19 "
                                         "below the double rounding floor")

    @pytest.mark.parametrize("model", [st.Arma(ma=(1.0, -0.5), ar=(1.0, -0.3)),
                                       st.PowerAtOrigin(2.0), st.FgnDensity(0.3)])
    @pytest.mark.parametrize("factor", [1e-11, 1e3])
    def test_switch_to_dd_does_not_depend_on_the_scale(self, model, factor):
        """The switch compares variances with 1e-12 r(0), so a scaled model
        runs in the precision of the model itself, with the same rho."""
        grid = range(8, 65, 8)
        bare = st.decay_rate_from_variances(model, grid)
        scaled = st.decay_rate_from_variances(st.Scaled(model, factor), grid)
        assert scaled.precision == bare.precision
        assert scaled.rho == pytest.approx(bare.rho, rel=1e-12)


class TestTruncationReusesTheFailedPass:
    def test_one_pass_per_precision_and_the_prefix_bits(self, monkeypatch):
        """A pass that stops short keeps the curve below its stop, so the
        decay fit reads it instead of factoring the prefix a second time."""
        arc = st.ArcSupported(0.455 * math.pi, 1.0 / (2.0 * math.pi))
        passes = []
        levinson = toeplitz._levinson

        def counted(r, *args, **kwargs):
            passes.append(len(r))
            return levinson(r, *args, **kwargs)

        monkeypatch.setattr(toeplitz, "_levinson", counted)
        rep = st.decay_rate_from_variances(arc, range(8, 97, 8))
        assert passes == [98, 98]                 # r(0..97) in double, then in dd
        assert rep.precision == "dd" and rep.warning.startswith("grid truncated")

        for precision in ("double", "dd"):
            cov = st.covariance_sequence(arc, 97, precision=precision)
            with pytest.raises(st.NearSingularError) as info:
                st.blue_variance_curve(cov, precision=precision)
            m = info.value.order
            lo = None if cov.lo is None else cov.lo[:m]
            entry = toeplitz.levinson_pass(cov.values, cov.lo if precision == "dd" else None)
            assert len(entry.curve) == m and entry.stop == str(info.value)
            prefix = st.CovarianceSequence(cov.values[:m], cov.provenance, precision, lo)
            curve = st.blue_variance_curve(prefix, precision=precision)
            assert np.array(entry.curve, dtype=float).tobytes() == curve.tobytes()
        assert rep.sigmas.tobytes() == np.sqrt(curve[rep.orders]).tobytes()
