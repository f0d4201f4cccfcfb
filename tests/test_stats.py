import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from weaksep.stats import (
    binomial_stderr,
    derive_generator,
    empirical_cdf,
    fit_lognormal,
    quadratic_scaling_fit,
)


class TestStreams:
    def test_same_origin_same_sequence(self):
        a = derive_generator(11, 4).random(100)
        b = derive_generator(11, 4).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        n = 10**5
        a = ndtri(np.maximum(derive_generator(9, 0).random(n), 1e-300))
        b = ndtri(np.maximum(derive_generator(9, 1).random(n), 1e-300))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01


class TestFitLognormal:
    def test_recovers_synthetic_parameters(self):
        rng = derive_generator(21)
        samples = np.exp(2.8 + 0.71 * ndtri(np.maximum(rng.random(10**5), 1e-300)))
        fit = fit_lognormal(samples)
        assert fit.mu_tilde == pytest.approx(2.8, abs=0.02)
        assert fit.sigma_tilde == pytest.approx(0.71, abs=0.02)
        assert fit.median == pytest.approx(math.exp(fit.mu_tilde), rel=1e-12)
        assert fit.r_squared_log_bins > 0.99
        assert not fit.degenerate

    def test_scale_equivariance(self):
        rng = derive_generator(22)
        samples = np.exp(1.0 + 0.4 * ndtri(np.maximum(rng.random(5000), 1e-300)))
        base = fit_lognormal(samples)
        scaled = fit_lognormal(7.0 * samples)
        assert scaled.mu_tilde - base.mu_tilde == pytest.approx(math.log(7.0), abs=1e-12)
        assert scaled.sigma_tilde == pytest.approx(base.sigma_tilde, abs=1e-12)

    def test_constant_samples_flagged_degenerate(self):
        fit = fit_lognormal(np.full(100, 4.0))
        assert fit.degenerate
        assert fit.sigma_tilde == pytest.approx(0.0, abs=1e-15)
        assert math.isnan(fit.r_squared)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0, 2.0, 0.0] * 20)
        with pytest.raises(ValueError):
            fit_lognormal([1.0] * 10)


class TestQuadraticScalingFit:
    def test_exact_quadratic_data(self):
        sigmas = [5.0, 10.0, 15.0, 20.0, 25.0]
        medians = [1.3 * s * s for s in sigmas]
        c, r2 = quadratic_scaling_fit(sigmas, medians)
        assert c == pytest.approx(1.3, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_matches_lstsq(self):
        sigmas = np.array([5.0, 10.0, 15.0, 20.0, 25.0])
        medians = np.array([31.0, 140.0, 310.0, 530.0, 845.0])
        c, _ = quadratic_scaling_fit(sigmas, medians)
        expected, *_ = np.linalg.lstsq(sigmas[:, None] ** 2, medians, rcond=None)
        assert c == pytest.approx(float(expected[0]), rel=1e-12)

    def test_linear_data_is_a_poor_quadratic(self):
        sigmas = [5.0, 10.0, 15.0, 20.0, 25.0]
        _, r2_linear = quadratic_scaling_fit(sigmas, sigmas)
        _, r2_quadratic = quadratic_scaling_fit(sigmas, [s * s for s in sigmas])
        assert r2_linear < 0.8
        assert r2_quadratic > 0.999

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            quadratic_scaling_fit([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        with pytest.raises(ValueError):
            quadratic_scaling_fit([1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 4.0, 9.0])
        with pytest.raises(ValueError):
            quadratic_scaling_fit([1.0, 2.0, 3.0, 4.0], [1.0, 4.0, float("nan"), 16.0])


class TestEmpiricalCdf:
    def test_small_sample_median(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf.median == 2.0
        assert list(cdf.values) == [1.0, 2.0, 3.0]
        assert list(cdf.levels) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_single_sample(self):
        cdf = empirical_cdf([5.0])
        assert cdf.median == 5.0
        assert list(cdf.levels) == [1.0]

    def test_monotone_zero_to_one(self):
        cdf = empirical_cdf(ndtri(np.maximum(derive_generator(30).random(1000), 1e-300)))
        assert np.all(np.diff(cdf.levels) >= 0)
        assert cdf.levels[-1] == 1.0

    def test_normal_sample_passes_ks(self):
        draws = ndtri(np.maximum(derive_generator(31).random(10**5), 1e-300))
        result = kstest(draws, "norm")
        assert result.pvalue > 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestBinomialStderr:
    def test_edge_cases(self):
        assert binomial_stderr(0, 50) == 0.0
        assert binomial_stderr(50, 50) == 0.0
        assert binomial_stderr(50, 100) == pytest.approx(0.05, abs=1e-15)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_stderr(5, 0)
        with pytest.raises(ValueError):
            binomial_stderr(6, 5)
