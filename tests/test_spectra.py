"""Spectral model evaluation, log-integrals, and classification."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import statmean as st
from statmean.spectra import MINUS_INFINITY, Singularity, parse_angle
from statmean.toeplitz import reflection_coefficients
from tests.conftest import fgn_density_mp

TWO_PI = 2.0 * math.pi


class TestEvaluate:
    def test_power_at_origin_at_pi(self):
        assert st.evaluate(st.PowerAtOrigin(1.0), math.pi) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_flat_zero_vanishes_at_origin(self):
        assert st.evaluate(st.FlatZero(1.0), 0.0) == 0.0

    def test_white_noise_constant(self, white_noise):
        lam = np.linspace(-math.pi, math.pi, 7)
        assert np.allclose(white_noise.values(lam), 1.0 / TWO_PI)

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(st.ValidationError):
            st.evaluate(st.WhiteNoise(1.0), 4.0)

    def test_parameter_validation_is_construction_time(self):
        with pytest.raises(st.ValidationError):
            st.PowerAtOrigin(-0.5)
        with pytest.raises(st.ValidationError):
            st.ArfimaFactor(0.5, st.WhiteNoise(1.0))
        with pytest.raises(st.ValidationError):
            st.FgnDensity(hurst=1.0)
        with pytest.raises(st.ValidationError):
            st.Arma(ma=(1.0,), ar=(1.0, -1.0))   # AR root on the circle

    def test_fisher_hartwig_needs_symmetric_points(self):
        with pytest.raises(st.ValidationError):
            st.FisherHartwig(st.WhiteNoise(1.0), ((0.7, 0.3),))
        st.FisherHartwig(st.WhiteNoise(1.0), ((0.7, 0.3), (-0.7, 0.3)))  # ok

    @pytest.mark.parametrize("exponent", [math.inf, math.nan, -0.5])
    def test_fisher_hartwig_exponent_is_checked_like_alpha(self, exponent):
        with pytest.raises(st.ValidationError, match="alpha must be finite with alpha > -1/2"):
            st.FisherHartwig(st.WhiteNoise(1.0), ((0.0, exponent),))

    def test_product_and_scaled_compose_pointwise(self, ma1):
        lam = np.linspace(-math.pi, math.pi, 101)
        prod = st.Product(ma1, st.PowerAtOrigin(0.5))
        assert np.allclose(prod.values(lam), ma1.values(lam) * st.PowerAtOrigin(0.5).values(lam))
        assert np.allclose(st.Scaled(ma1, 2.5).values(lam), 2.5 * ma1.values(lam))

    def test_frequency_shift_reduces_mod_2pi(self, ma1):
        shifted = st.FrequencyShifted(ma1, math.pi / 2)
        lam = np.linspace(-math.pi, math.pi, 65)
        expected = ma1.values((lam + math.pi / 2 + math.pi) % TWO_PI - math.pi)
        assert np.allclose(shifted.values(lam), expected)


class TestFgnSeries:
    @pytest.mark.parametrize("hurst", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_within_2e15_of_forty_digit_hurwitz_zeta(self, hurst):
        """200 angles, log-spaced in +/-[1e-3, pi]."""
        magnitude = np.geomspace(1e-3, math.pi, 100)
        lam = np.concatenate((-magnitude[::-1], magnitude))
        ref = np.array([float(v) for v in fgn_density_mp(hurst, 1.0, lam)])
        assert np.max(np.abs(st.FgnDensity(hurst).values(lam) / ref - 1.0)) < 2e-15

    def test_origin_power(self):
        # f ~ |lambda|^{1-2H} near 0
        model = st.FgnDensity(0.75)
        ratio = model.values(np.array(1e-4)) / 1e-4 ** (1 - 2 * 0.75)
        ratio2 = model.values(np.array(1e-5)) / 1e-5 ** (1 - 2 * 0.75)
        assert ratio2 / ratio == pytest.approx(1.0, abs=1e-3)


class TestSzegoIntegral:
    def test_flat_zero_half(self):
        # closed form: -2 * integral_0^pi lam^{-1/2} = -4 sqrt(pi)
        assert st.szego_integral(st.FlatZero(0.5)) == pytest.approx(-4 * math.sqrt(math.pi), abs=1e-9)

    def test_flat_zero_one_diverges(self):
        assert st.szego_integral(st.FlatZero(1.0)) is MINUS_INFINITY

    def test_white_noise(self, white_noise):
        assert st.szego_integral(white_noise) == pytest.approx(-TWO_PI * math.log(TWO_PI), rel=1e-12)

    def test_arc_is_symbolic_minus_infinity(self):
        out = st.szego_integral(st.ArcSupported(math.pi / 2, 1.0))
        assert out is MINUS_INFINITY
        assert not isinstance(out, float)

    def test_wrapped_flat_zero_grades_at_its_own_rate(self):
        """The grid depth comes from the rate on the essential singularity,
        so wrapping the model does not change it."""
        bare = st.szego_integral(st.FlatZero(0.9))
        scaled = st.szego_integral(st.Scaled(st.FlatZero(0.9), 2.0))
        product = st.szego_integral(st.Product(st.FlatZero(0.9), st.WhiteNoise(1.0)))
        assert scaled == pytest.approx(bare + TWO_PI * math.log(2.0), abs=1e-10)
        assert product == pytest.approx(bare, abs=1e-10)
        # two contacts at one angle: the faster rate sets the depth, in either order
        both = bare + st.szego_integral(st.FlatZero(0.5))
        for pair in ((0.9, 0.5), (0.5, 0.9)):
            model = st.Product(st.FlatZero(pair[0]), st.FlatZero(pair[1]))
            assert st.szego_integral(model) == pytest.approx(both, abs=1e-10)


class TestGeometricMean:
    def test_constant(self):
        assert st.geometric_mean(st.WhiteNoise(3.0)) == pytest.approx(3.0, rel=1e-12)

    def test_power_at_origin(self):
        # outer-factor value |s(0)|^2 with s(z) = 1 - z gives 1/(2 pi)
        assert st.geometric_mean(st.PowerAtOrigin(1.0)) == pytest.approx(1.0 / TWO_PI, rel=1e-10)

    def test_arc_zero(self):
        assert st.geometric_mean(st.ArcSupported(1.0, 5.0)) == 0.0

    def test_multiplicative(self, ma1, ar1):
        pairs = [(st.PowerAtOrigin(1.0), ma1), (ma1, ar1),
                 (st.PowerAtOrigin(-0.25), st.WhiteNoise(2.0))]
        for f, g in pairs:
            lhs = st.geometric_mean(st.Product(f, g))
            rhs = st.geometric_mean(f) * st.geometric_mean(g)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(factor=hst.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_density(self, factor):
        base = st.Arma(ma=(1.0, -0.5))
        small = st.geometric_mean(base)
        large = st.geometric_mean(st.Scaled(base, factor))
        assert small <= large + 1e-12


class TestClassify:
    def test_arfima_long_memory(self, white_noise):
        rec = st.classify(st.ArfimaFactor(0.25, white_noise))
        assert rec.determinism == "Regular"
        assert rec.nondeterministic
        assert rec.memory == "Long"
        assert rec.origin_exponent == pytest.approx(-0.5)

    def test_fgn_antipersistent(self):
        rec = st.classify(st.FgnDensity(0.25))
        assert rec.determinism == "Regular"
        assert rec.memory == "Antipersistent"
        assert rec.origin_exponent == pytest.approx(0.5)

    def test_ma_unit_root_at_origin(self):
        """|1 - e^{i lam}|^2 / (2 pi) as an MA(1) and as f_alpha at alpha = 1."""
        for model in (st.Arma(ma=(1.0, -1.0)), st.PowerAtOrigin(1.0)):
            rec = st.classify(model)
            assert (rec.memory, rec.origin_exponent) == ("Antipersistent", 2.0)

    def test_repeated_ma_unit_root_is_one_zero(self):
        model = st.Arma(ma=(1.0, -2.0, 1.0))
        assert model.singularities() == (Singularity(0.0, "algebraic", 4.0),)
        assert model.origin_exponent() == 4.0

    def test_triple_ma_unit_root_at_origin(self):
        """np.roots puts the roots of (1 - z)^3 6.6e-6 off the circle; their
        cluster's mean lies on it."""
        model = st.Arma(ma=(1.0, -3.0, 3.0, -1.0))
        (s,) = model.singularities()
        assert (s.angle, s.kind, s.exponent) == (pytest.approx(0.0, abs=1e-12), "algebraic", 6.0)
        rec = st.classify(model)
        assert (rec.memory, rec.origin_exponent) == ("Antipersistent", 6.0)

    def test_unit_root_beside_a_root_off_the_circle(self):
        """Roots at 1 and 1.0005 cluster, and their mean is off the circle: each
        is tested alone, so the root at 1 is still found."""
        model = st.Arma(ma=(1.0, -2.0005 / 1.0005, 1.0 / 1.0005))
        (s,) = model.singularities()
        assert (s.angle, s.kind, s.exponent) == (pytest.approx(0.0, abs=1e-12), "algebraic", 2.0)

    def test_double_ma_unit_roots_off_the_real_axis(self):
        """(1 + z^2)^2: a double root at each of +i and -i."""
        found = sorted((s.angle, s.kind, s.exponent)
                       for s in st.Arma(ma=(1.0, 0.0, 2.0, 0.0, 1.0)).singularities())
        assert found == [(pytest.approx(-math.pi / 2, abs=1e-12), "algebraic", 4.0),
                         (pytest.approx(math.pi / 2, abs=1e-12), "algebraic", 4.0)]

    def test_combinators_over_an_ma_unit_root(self):
        base = st.Arma(ma=(1.0, -1.0))
        assert st.ArfimaFactor(0.25, base).origin_exponent() == 1.5
        assert st.Product(base, st.WhiteNoise(1.0)).origin_exponent() == 2.0

    def test_arc_purely_deterministic(self):
        assert st.classify(st.ArcSupported(math.pi / 2, 1.0)).determinism == "PurelyDeterministic"

    def test_flat_zero_dichotomy(self):
        for a in (0.25, 0.5, 0.99):
            assert st.classify(st.FlatZero(a)).determinism == "Regular"
        for a in (1.0, 1.5, 3.0):
            assert st.classify(st.FlatZero(a)).determinism == "LightDeterministic"

    def test_pollaczek_szego_light_deterministic(self):
        assert st.classify(st.PollaczekSzego(0.7)).determinism == "LightDeterministic"

    def test_atoms_with_density_mixed(self, atom_measure):
        assert st.classify(atom_measure).determinism == "Mixed"


def _fisher_hartwig(base, angle, exponent):
    """Points at +/-angle, or one point at 0 or pi."""
    points = (((angle, exponent),) if angle in (0.0, math.pi)
              else ((angle, exponent), (-angle, exponent)))
    return st.FisherHartwig(base, points)


#: valid leaves: every variant that is not a combinator, with unit MA roots
LEAVES = hst.one_of(
    hst.builds(st.WhiteNoise, hst.sampled_from([0.0, 0.05, 1.0 / TWO_PI, 2.0])),
    hst.builds(st.Arma, hst.sampled_from([(1.0,), (1.0, -1.0), (1.0, 0.5), (1.0, -2.0, 1.0),
                                          (1.0, 0.0, 1.0)]),
               hst.sampled_from([(1.0,), (1.0, -0.5), (1.0, 0.3)])),
    hst.builds(st.PowerAtOrigin, hst.floats(-0.45, 2.0)),
    hst.builds(st.FgnDensity, hst.floats(0.05, 0.95)),
    hst.builds(st.FlatZero, hst.sampled_from([0.5, 1.0, 1.5])),
    hst.builds(st.PollaczekSzego, hst.sampled_from([0.5, 1.0])),
    hst.builds(st.ArcSupported, hst.sampled_from([0.5, 1.0, math.pi / 2])),
)


def _combinators(children, shifts):
    return hst.one_of(
        hst.builds(st.ArfimaFactor, hst.floats(-0.45, 0.45), children),
        hst.builds(_fisher_hartwig, children, hst.sampled_from([0.0, 0.5, 1.0, math.pi]),
                   hst.floats(-0.45, 1.0)),
        hst.builds(st.Product, children, children),
        hst.builds(st.Scaled, children, hst.sampled_from([0.0, 0.5, 3.0])),
        hst.builds(st.FrequencyShifted, children, hst.sampled_from(shifts)),
    )


#: nested models whose shifts are all by 0, and nested models with any shift
UNSHIFTED = hst.recursive(LEAVES, lambda c: _combinators(c, [0.0]), max_leaves=6)
SHIFTED = hst.recursive(LEAVES, lambda c: _combinators(c, [0.0, 0.3, -1.0, math.pi]),
                        max_leaves=6)
LAWS = settings(max_examples=200, deadline=None, derandomize=True)


class TestDerivedStructure:
    """children, origin_exponent and szego_diverges are read off the fields
    and the declared singularities, so the combinators obey their laws."""

    def test_children_are_the_model_fields_in_order(self):
        left, right = st.WhiteNoise(0.2), st.PowerAtOrigin(0.3)
        assert st.Product(left, right).children() == (left, right)
        assert st.FisherHartwig(left, ((0.0, 0.2),)).children() == (left,)
        assert st.Arma().children() == ()

    @pytest.mark.parametrize("arc_first", [False, True])
    def test_an_edge_outlasts_a_point_at_its_angle(self, arc_first):
        """Fisher-Hartwig points on an arc's edges: the edges stay, carrying
        the points' power on their live side, so the arc still decides."""
        points = st.FisherHartwig(st.WhiteNoise(1.0), ((1.0, -0.3), (-1.0, -0.3)))
        arc = st.ArcSupported(1.0)
        model = st.Product(arc, points) if arc_first else st.Product(points, arc)
        assert sorted(model.singularities(), key=lambda s: s.angle) == [
            Singularity(-1.0, "edge", -0.6), Singularity(1.0, "edge", -0.6)]
        rec = st.classify(model)
        assert (rec.determinism, rec.memory, rec.origin_exponent) == (
            "PurelyDeterministic", "Unclassified", None)

    def test_a_shift_reports_the_shifted_density_at_zero(self):
        """A pole at pi shifted by pi is a pole at 0."""
        model = st.FrequencyShifted(st.FisherHartwig(st.WhiteNoise(), ((math.pi, -0.3),)), math.pi)
        rec = st.classify(model)
        assert (rec.memory, rec.origin_exponent) == ("Long", -0.6)

    @LAWS
    @given(a=UNSHIFTED, b=UNSHIFTED)
    def test_product_adds_origin_exponents(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ea, eb = a.origin_exponent(), b.origin_exponent()
            assert st.Product(a, b).origin_exponent() == (None if None in (ea, eb) else ea + eb)

    @LAWS
    @given(model=UNSHIFTED, d=hst.floats(-0.45, 0.45), angle=hst.sampled_from([0.0, 1.0, math.pi]),
           e=hst.floats(-0.45, 1.0), factor=hst.floats(0.1, 10.0))
    def test_factors_move_the_origin_exponent(self, model, d, angle, e, factor):
        """ArfimaFactor(d) subtracts 2d, a Fisher-Hartwig point at 0 adds 2e,
        and a positive scaling or a shift by 0 keeps it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e0 = model.origin_exponent()
            moved = {st.ArfimaFactor(d, model): -2.0 * d,
                     _fisher_hartwig(model, angle, e): 2.0 * e if angle == 0.0 else 0.0,
                     st.Scaled(model, factor): 0.0, st.FrequencyShifted(model, 0.0): 0.0}
            for combined, change in moved.items():
                assert combined.origin_exponent() == (None if e0 is None else e0 + change)

    @LAWS
    @given(model=SHIFTED)
    def test_a_combinator_diverges_with_any_child(self, model):
        """Whatever the nesting and shifts, the Szego integral of a combinator
        diverges exactly when its density is zero or a child's diverges."""
        if model.children():
            assert model.szego_diverges() == (model.zero_density() or any(
                c.szego_diverges() for c in model.children()))


class TestEvenness:
    MODELS = [
        st.WhiteNoise(0.2),
        st.Arma((1.0, -0.5)),
        st.Arma((1.0,), (1.0, -0.5)),
        st.PowerAtOrigin(0.25),
        st.ArfimaFactor(0.3, st.WhiteNoise(1.0 / TWO_PI)),
        st.FgnDensity(0.75),
        st.FisherHartwig(st.WhiteNoise(1.0 / TWO_PI), ((math.pi / 2, 0.3), (-math.pi / 2, 0.3))),
        st.FlatZero(0.7),
        st.PollaczekSzego(1.0),
        st.ArcSupported(1.0, 2.0),
        st.Product(st.PowerAtOrigin(1.0), st.Arma((1.0, -0.5))),
        st.Scaled(st.FgnDensity(0.6), 1.7),
        st.FrequencyShifted(st.PowerAtOrigin(1.0), math.pi),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_even(self, model):
        lam = np.linspace(1e-6, math.pi - 1e-6, 257)
        left = model.values(-lam)
        right = model.values(lam)
        finite = np.isfinite(left) & np.isfinite(right)
        assert np.all(np.abs(left[finite] - right[finite]) <= 1e-14 * np.maximum(1.0, right[finite]))

    @given(lam=hst.floats(min_value=1e-6, max_value=math.pi - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_even_random_angle(self, lam):
        model = st.Product(st.FgnDensity(0.7), st.Arma((1.0, -0.3)))
        assert model.values(np.array(-lam)) == pytest.approx(float(model.values(np.array(lam))),
                                                             rel=0, abs=1e-14)


class TestMeasure:
    def test_atom_validation(self, white_noise):
        with pytest.raises(st.ValidationError):
            st.SpectralMeasure(white_noise, ((0.0, 0.5), (0.0, 0.2)))
        with pytest.raises(st.ValidationError):
            st.SpectralMeasure(white_noise, ((0.1, -1.0),))

    def test_zero_density_needs_atoms(self):
        with pytest.raises(st.ValidationError):
            st.SpectralMeasure(st.WhiteNoise(0.0))

    @pytest.mark.parametrize("wrap", [
        lambda m: st.FisherHartwig(m, ((1.0, 0.3), (-1.0, 0.3))),
        lambda m: st.ArfimaFactor(0.2, m),
        lambda m: st.Product(st.PowerAtOrigin(0.3), m),
        lambda m: st.FrequencyShifted(m, math.pi),
    ])
    def test_zero_base_makes_every_combinator_zero(self, wrap):
        model = wrap(st.WhiteNoise(0.0))
        assert model.zero_density() and model.szego_diverges()
        with pytest.raises(st.ValidationError):
            st.SpectralMeasure(model)

    def test_finite_atom_measure_rejected_at_high_order(self):
        atoms = tuple((0.1 * j + 0.05, 1.0) for j in range(5))
        measure = st.SpectralMeasure(st.WhiteNoise(0.0), atoms)
        with pytest.raises(st.ValidationError):
            st.covariance_sequence(measure, 6)


MA = st.Arma((1.0, 0.4, -0.2), (1.0, -0.5), 0.7)

#: every variant, nested products, scalings, shifts and Fisher-Hartwig points,
#: with their canonical documents as the hand-written encoders wrote them
KEYED_CATALOGUE = [
    (st.WhiteNoise(),
     '{"level": 0.15915494309189535, "variant": "white_noise"}'),
    (st.WhiteNoise(0.3),
     '{"level": 0.3, "variant": "white_noise"}'),
    (st.Arma((1.0, -0.5)),
     '{"ar": [1.0], "ma": [1.0, -0.5], "scale": 1.0, "variant": "arma"}'),
    (MA,
     '{"ar": [1.0, -0.5], "ma": [1.0, 0.4, -0.2], "scale": 0.7, "variant": "arma"}'),
    (st.PowerAtOrigin(0.3),
     '{"alpha": 0.3, "variant": "power_at_origin"}'),
    (st.PowerAtOrigin(1),
     '{"alpha": 1, "variant": "power_at_origin"}'),
    (st.ArfimaFactor(0.2, st.Arma((1.0, 0.3))),
     '{"base": {"ar": [1.0], "ma": [1.0, 0.3], "scale": 1.0, "variant": "arma"}, "d": 0.2, "variant": "arfima"}'),
    (st.FgnDensity(0.7),
     '{"hurst": 0.7, "scale": 1.0, "variant": "fgn"}'),
    (st.FgnDensity(0.3, 2.0),
     '{"hurst": 0.3, "scale": 2.0, "variant": "fgn"}'),
    (st.FisherHartwig(st.WhiteNoise(1.0), ((0.5, 0.2), (-0.5, 0.2))),
     '{"base": {"level": 1.0, "variant": "white_noise"}, "points": [[0.5, 0.2], [-0.5, 0.2]], "variant": "fisher_hartwig"}'),
    (st.FisherHartwig(st.PowerAtOrigin(0.1), ((0.0, 0.3), (math.pi, 0.25))),
     '{"base": {"alpha": 0.1, "variant": "power_at_origin"}, "points": [[0.0, 0.3], [3.141592653589793, 0.25]], "variant": "fisher_hartwig"}'),
    (st.FlatZero(1.5),
     '{"a": 1.5, "variant": "flat_zero"}'),
    (st.PollaczekSzego(1.0),
     '{"a": 1.0, "variant": "pollaczek_szego"}'),
    (st.ArcSupported(0.5 * math.pi, 1.0 / TWO_PI),
     '{"alpha": 1.5707963267948966, "level": 0.15915494309189535, "variant": "arc_supported"}'),
    (st.Product(st.FlatZero(1.5), st.Scaled(st.PollaczekSzego(1.0), 2.0)),
     '{"left": {"a": 1.5, "variant": "flat_zero"}, "right": {"factor": 2.0, "model": {"a": 1.0, "variant": "pollaczek_szego"}, "variant": "scaled"}, "variant": "product"}'),
    (st.Product(st.PowerAtOrigin(0.3), st.Product(MA, st.WhiteNoise(0.2))),
     '{"left": {"alpha": 0.3, "variant": "power_at_origin"}, "right": {"left": {"ar": [1.0, -0.5], "ma": [1.0, 0.4, -0.2], "scale": 0.7, "variant": "arma"}, "right": {"level": 0.2, "variant": "white_noise"}, "variant": "product"}, "variant": "product"}'),
    (st.Scaled(st.Scaled(st.ArcSupported(0.455 * math.pi, 0.5 / math.pi), 2.0), 1.5),
     '{"factor": 1.5, "model": {"factor": 2.0, "model": {"alpha": 1.429424657383356, "level": 0.15915494309189535, "variant": "arc_supported"}, "variant": "scaled"}, "variant": "scaled"}'),
    (st.FrequencyShifted(st.ArcSupported(1.0, 1.0), math.pi),
     '{"model": {"alpha": 1.0, "level": 1.0, "variant": "arc_supported"}, "shift": 3.141592653589793, "variant": "frequency_shifted"}'),
    (st.FrequencyShifted(st.ArfimaFactor(-0.3, st.WhiteNoise()), -0.25),
     '{"model": {"base": {"level": 0.15915494309189535, "variant": "white_noise"}, "d": -0.3, "variant": "arfima"}, "shift": -0.25, "variant": "frequency_shifted"}'),
]


class TestJson:
    @pytest.mark.parametrize("model, key", KEYED_CATALOGUE)
    def test_key_strings_are_pinned(self, model, key):
        """The documents, with sorted keys, are these strings."""
        assert json.dumps(model.to_json(), sort_keys=True) == key

    def test_round_trip(self, ma1):
        for model in [ma1] + [m for m, _ in KEYED_CATALOGUE]:
            rebuilt = st.model_from_json(json.loads(json.dumps(model.to_json())))
            assert rebuilt == model

    def test_measure_document_is_pinned(self):
        measure = st.SpectralMeasure(st.WhiteNoise(0.2), ((0.0, 0.5), (1.25, 0.3)))
        assert json.dumps(measure.to_json(), sort_keys=True) == (
            '{"atoms": [[0.0, 0.5], [1.25, 0.3]], "density": {"level": 0.2, "variant": "white_noise"}}')

    @pytest.mark.parametrize("doc, message", [
        ({"variant": "power_at_origin"}, "power_at_origin: missing field 'alpha'"),
        ({"variant": "power_at_origin", "alpha": "x"}, "power_at_origin.alpha"),
        ({"variant": "power_at_origin", "alpha": [1.0]}, "power_at_origin.alpha"),
        ({"variant": "power_at_origin", "alpha": True}, "power_at_origin.alpha"),
        ({"variant": "arc_supported", "alpha": "zpi"}, "arc_supported.alpha"),
        ({"variant": "arma", "ma": 5}, "arma.ma"),
        ({"variant": "arma", "ma": [1.0, None]}, "arma.ma"),
        ({"variant": "fgn", "hurst": [0.7]}, "fgn.hurst"),
        ({"variant": "product", "left": {"variant": "white_noise"}},
         "product: missing field 'right'"),
        ({"variant": "scaled", "model": {"variant": "flat_zero"}, "factor": 2.0},
         "flat_zero: missing field 'a'"),
        ({"variant": "fisher_hartwig", "base": {"variant": "white_noise"},
          "points": [[0.5, 0.2, 1.0]]}, "fisher_hartwig.points"),
        ({"density": {"variant": "white_noise"}, "atoms": [[0.0]]}, "measure.atoms"),
        ({"density": {"variant": "white_noise"}, "atoms": 7}, "measure.atoms"),
        ({"variant": ["white_noise"]}, "unknown model variant"),
        (3, "'variant'"),
        ([], "'variant'"),
    ])
    def test_malformed_document_names_the_field(self, doc, message):
        with pytest.raises(st.ValidationError, match=re.escape(message)):
            st.measure_from_json(doc)

    def test_missing_fields_take_the_constructor_defaults(self):
        assert st.model_from_json({"variant": "arma"}) == st.Arma()
        assert st.model_from_json({"variant": "white_noise"}) == st.WhiteNoise()
        assert st.model_from_json({"variant": "fgn", "hurst": 0.6, "extra": "ignored"}) == \
            st.FgnDensity(0.6)
        assert st.model_from_json({"variant": "fgn", "hurst": 0.7, "series_truncation": 200}) == \
            st.FgnDensity(0.7)
        assert st.model_from_json({"variant": "arc_supported", "alpha": "0.5pi"}) == \
            st.ArcSupported(0.5 * math.pi)
        assert st.ArcSupported(1.0).level == 1.0

    @pytest.mark.parametrize("doc", [
        {"variant": "frequency_shifted", "model": {"variant": "white_noise"}, "shift": "nan"},
        {"variant": "fisher_hartwig", "base": {"variant": "white_noise"},
         "points": [["nanpi", 0.3]]},
        {"density": {"variant": "white_noise"}, "atoms": [["nan", 0.5]]},
        {"density": {"variant": "white_noise"}, "atoms": [["infpi", 0.5]]},
    ])
    def test_non_finite_angles_are_refused(self, doc):
        with pytest.raises(st.ValidationError, match="angle"):
            st.measure_from_json(doc)

    def test_non_finite_arma_coefficients_are_refused(self):
        with pytest.raises(st.ValidationError, match="finite"):
            st.Arma((1.0, math.nan))

    def test_measure_round_trip(self, atom_measure):
        rebuilt = st.measure_from_json(json.loads(json.dumps(atom_measure.to_json())))
        assert rebuilt == atom_measure

    def test_unknown_variant(self):
        with pytest.raises(st.ValidationError):
            st.model_from_json({"variant": "nope"})

    def test_document_depth_is_bounded(self):
        doc = {"variant": "white_noise"}
        for _ in range(st.spectra.MAX_DOCUMENT_DEPTH - 1):
            doc = {"variant": "scaled", "factor": 1.0, "model": doc}
        assert (json.dumps(st.model_from_json(doc).to_json(), sort_keys=True)
                == json.dumps(st.measure_from_json(doc).density.to_json(), sort_keys=True))
        deeper = {"variant": "scaled", "factor": 1.0, "model": doc}
        for build in (st.model_from_json, st.measure_from_json):
            with pytest.raises(st.ValidationError, match="nested deeper"):
                build(deeper)

    def test_angles_accept_pi_suffix(self):
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("-pi") == -math.pi
        assert parse_angle("pi") == math.pi
        assert parse_angle(1.25) == 1.25
        model = st.model_from_json({"variant": "arc_supported", "alpha": "0.5pi", "level": 1.0})
        assert model.alpha == pytest.approx(math.pi / 2)


class TestShiftInvariance:
    def test_log_integral_invariant_under_any_shift(self, ma1):
        base = st.szego_integral(ma1)
        for shift in (0.3, -1.1, math.pi / 2):
            shifted = st.FrequencyShifted(ma1, shift)
            assert st.szego_integral(shifted) == pytest.approx(base, rel=1e-10)
            assert st.geometric_mean(shifted) == pytest.approx(st.geometric_mean(ma1),
                                                               rel=1e-10)

    def test_off_axis_shift_rejected_by_covariance(self, ma1):
        with pytest.raises(st.ValidationError):
            st.covariance_sequence(st.FrequencyShifted(ma1, 0.3), 4)


class TestShiftByZero:
    """A shift by 0 is the model itself, bit for bit: angles in [-pi, pi] are
    not reduced, so graded nodes near a pole at 0 keep their offset."""

    MODELS = [st.PowerAtOrigin(-0.26), st.FgnDensity(0.62),
              st.ArfimaFactor(0.38, st.WhiteNoise()),
              st.Product(st.FgnDensity(0.67), st.PowerAtOrigin(0.115))]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_every_answer_is_the_models(self, model):
        shifted = st.FrequencyShifted(model, 0.0)
        lam = np.array([-math.pi, -1.0, -1e-19, 1e-300, 1e-19, 0.5, math.pi])
        n = 1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(shifted.values(lam), model.values(lam))
            a, b = st.covariance_sequence(shifted, n), st.covariance_sequence(model, n)
            assert np.array_equal(a.values, b.values) and a.provenance == b.provenance
            for variance in (lambda m: st.variance_under(st.lse_weights(n), m),
                             lambda m: st.blue_solve(st.system_for(m, n))[1]):
                assert variance(shifted) == variance(model)
            assert st.classify(shifted) == st.classify(model)


class TestFgnExtremes:
    @pytest.mark.parametrize("hurst", [0.05, 0.95])
    def test_extreme_hurst_stays_finite_through_quadrature(self, hurst):
        """Deeply graded nodes must not overflow the series (0 * inf -> nan)."""
        model = st.FgnDensity(hurst)
        cov = st.covariance_sequence(model, 32)
        assert np.all(np.isfinite(cov.values))
        assert np.all(np.abs(reflection_coefficients(cov.values)) < 1.0)

    def test_origin_limits_by_hurst(self):
        assert st.evaluate(st.FgnDensity(0.25), 0.0) == 0.0
        assert st.evaluate(st.FgnDensity(0.5), 0.0) == pytest.approx(1.0)
        assert math.isinf(st.evaluate(st.FgnDensity(0.75), 0.0))
