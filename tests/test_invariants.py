"""Cross-route invariants over valid model documents.

One derandomized property test draws nested model documents, field by field
as `test_cli_fuzz.model_documents` does but only with valid values, and holds
the library's routes to one another:

* the BLUE variance is at most each rival's (the sample mean, the parabolic
  weights, Adenstedt's weights at the model's own exponent, and the
  pseudo-best weights of a misspecified design), within 1e-10 relative;
* the sample mean's finite-n efficiency lies in (0, 1], to the same 1e-10
  (for white noise its two variances differ by their rounding);
* the variance curve's last entry is `blue_solve`'s variance within 1e-8;
* the OPUC minimizer's weights are `blue_solve`'s within a few ulps;
* the Kolmogorov-Szego law: the Levinson errors are nonincreasing, and the
  last stays above their limit 2 pi G(f), the one-step prediction error from
  the infinite past, within 1e-13 r(0);
* the double-double and double curves agree within 1e-8 wherever both run;
* the document, read and written back, gives an equal model;

and nothing prints a warning.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

import statmean as st
from statmean import quadrature

TWO_PI = 2.0 * math.pi

#: the strongest pole at 0 that the graded grid resolves to ~1e-13: beyond
#: it the Fejer cross-check of the sample mean refuses
LOWEST_EXPONENT = -1.0 + 44.0 / quadrature.MAX_SINGULAR_PANELS
#: the highest order of a zero at 0 at which the unrefined double curve is
#: still within 1e-8 of the refined solve at n = 256 (ROADMAP item 2)
HIGHEST_EXPONENT = 2.0

LEAVES = hst.one_of(
    hst.fixed_dictionaries({"variant": hst.just("white_noise"),
                            "level": hst.sampled_from([0.05, 1.0 / TWO_PI, 2.0])}),
    hst.fixed_dictionaries({"variant": hst.just("arma"),
                            "ma": hst.sampled_from([[1.0], [1.0, -1.0], [1.0, 0.5]]),
                            "ar": hst.sampled_from([[1.0], [1.0, -0.5], [1.0, 0.3]])}),
    hst.fixed_dictionaries({"variant": hst.just("power_at_origin"),
                            "alpha": hst.floats(-0.45, 1.0)}),
    hst.fixed_dictionaries({"variant": hst.just("fgn"), "hurst": hst.floats(0.05, 0.95)}),
)

#: a Fisher-Hartwig point at 0, of either sign, or a zero at an angle off 0,
#: paired with its mirror unless it is pi; a pole off 0 is left out, like any
#: frequency shift, until ROADMAP item 3 keeps the nodes graded onto a
#: singular angle off it
POINTS = hst.one_of(
    hst.tuples(hst.just(0.0), hst.floats(-0.45, 1.0)).map(lambda p: [list(p)]),
    hst.tuples(hst.sampled_from([0.5, 1.0, math.pi]), hst.floats(0.0, 1.0)).map(
        lambda p: [list(p)] if p[0] == math.pi else [list(p), [-p[0], p[1]]]),
)


def _combinators(children):
    return hst.one_of(
        hst.fixed_dictionaries({"variant": hst.just("arfima"), "d": hst.floats(-0.45, 0.45),
                                "base": children}),
        hst.fixed_dictionaries({"variant": hst.just("fisher_hartwig"), "base": children,
                                "points": POINTS}),
        hst.fixed_dictionaries({"variant": hst.just("product"), "left": children,
                                "right": children}),
        # a factor far above 1 is left out: the covariance quadrature's 1e-12
        # is absolute, so it refuses a large multiple of a model it converges on
        hst.fixed_dictionaries({"variant": hst.just("scaled"), "model": children,
                                "factor": hst.sampled_from([1e-11, 0.5, 3.0])}),
    )


#: nondeterministic models nested up to four leaves.  Purely deterministic
#: spectra (arcs, flat zeros, Pollaczek-Szego) are left out: their variance
#: falls exponentially, and the double curve parts from the refined solve by
#: far more than 1e-8 before the pass stops; `test_deterministic` holds them.
DOCUMENTS = hst.recursive(LEAVES, _combinators, max_leaves=4)

INVARIANTS = settings(max_examples=600, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _submodels(model):
    yield model
    for child in model.children():
        yield from _submodels(child)


@INVARIANTS
@given(doc=DOCUMENTS, n=hst.sampled_from([16, 64, 256]))
def test_routes_agree_on_valid_models(doc, n):
    model = st.model_from_json(doc)
    # every factor's power at 0 inside what the grid and the curve resolve;
    # a factor's own pole, not only the product's, sets the nodes' overflow
    exponents = [m.origin_exponent() for m in _submodels(model)]
    assume(all(e is not None and LOWEST_EXPONENT < e <= HIGHEST_EXPONENT for e in exponents))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert st.model_from_json(model.to_json()) == model

        cov = st.covariance_sequence(model, n)
        weights, variance = st.blue_solve(st.ToeplitzSystem(cov))
        rivals = [st.lse_weights(n), st.parabolic_weights(n),
                  st.adenstedt_weights(n, exponents[0] / 2.0),
                  st.pseudo_best_weights(st.PowerAtOrigin(0.3), n)]
        for rival in rivals:
            assert variance <= st.variance_under(rival, model) * (1.0 + 1e-10)
        efficiency = st.efficiency_finite(st.lse_weights(n), model).value
        assert 0.0 < efficiency <= 1.0 + 1e-10

        curve = st.blue_variance_curve(cov)
        assert curve[-1] == pytest.approx(variance, rel=1e-8)

        coefficients = weights.coefficients
        state = st.szego_recursion(model, n)
        opuc = st.optimal_polynomial(state, n)
        assert np.max(np.abs(opuc - coefficients)) <= 4 * np.finfo(float).eps * np.max(
            np.abs(coefficients))

        norms = state.monic_norms
        assert np.all(np.diff(norms) <= 0.0)
        # within the covariances' accuracy: quadrature ones are a few 1e-15
        # r(0) off, and the pass carries that error to e_n, not e_n's digits
        assert norms[-1] >= st.christoffel_limit_in_disk(model, 0) - 1e-13 * norms[0]

        try:
            extended = st.covariance_sequence(model, n, precision="dd")
        except st.ValidationError:          # no closed form: double only
            return
        dd_curve = st.blue_variance_curve(extended, precision="dd")
        assert np.max(np.abs(curve / dd_curve - 1.0)) <= 1e-8
