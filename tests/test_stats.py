import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import kstest, lognorm, norm

from oracles import derive_generator
from weaksep.stats import (
    LaneStreams,
    _histogram_r2,
    _lognorm_pdf,
    _norm_pdf,
    binomial_stderr,
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


# seeds and path entries of one or two 32-bit words, and of up to nine: a
# seed of more than four words fills the pool with entropy left to absorb
WIDE = st.integers(2**64, 2**256)
SEED = st.one_of(st.integers(0, 2**64 - 1), WIDE)
PATH_ENTRY = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), WIDE)
# subset sizes: one jump per draw for few lanes, and fewer, longer runs of LCG
# steps for more
SUBSET_SIZES = st.sampled_from([1, 2, 9, 60, 300, 1100, 1300])


class TestLaneStreams:
    """derive_generator is the oracle: lane j of LaneStreams(seed, path, idx)
    must draw exactly what derive_generator(seed, *path, idx[j]) draws."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEED, path=st.lists(PATH_ENTRY, max_size=2),
           low=st.integers(0, 2**32 - 700), high=st.integers(2**32, 2**64 - 700),
           data=st.data())
    def test_lanes_draw_what_their_generators_draw(self, seed, path, low, high, data):
        # lane indices below and at or above 2**32, interleaved, in one call
        index = np.empty(1300, dtype=np.uint64)
        index[0::2] = np.arange(low, low + 650, dtype=np.uint64)
        index[1::2] = np.arange(high, high + 650, dtype=np.uint64)
        gens = [derive_generator(seed, *path, int(i)) for i in index]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow or cast warning
            streams = LaneStreams(seed, tuple(path), index)
            for _ in range(data.draw(st.integers(1, 4))):
                k = data.draw(st.integers(1, 64))
                size = data.draw(SUBSET_SIZES)
                rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                lanes = np.sort(rng.choice(index.size, size=size, replace=False))
                block = streams.random(lanes, k)
                want = np.array([gens[j].random(k) for j in lanes])
                assert np.array_equal(block, want)

    def test_whole_slice_and_long_draws(self):
        streams = LaneStreams(5, (), np.arange(3))
        gens = [derive_generator(5, i) for i in range(3)]
        for k in (1, 100, 64):  # more than one jump table's worth, then a block
            assert np.array_equal(streams.random(slice(None), k),
                                  [g.random(k) for g in gens])

    @pytest.mark.parametrize("width", [8193, 16384])
    def test_wide_draws(self, width):
        # _CALL_WIDTH lanes or more draw in one run of LCG steps; the odd lanes of 8,193
        # draw 7 and 63 in two runs, the second a step short
        streams = LaneStreams(21, (3,), np.arange(width))
        gens = [derive_generator(21, 3, i) for i in range(width)]
        odd = np.arange(1, width, 2)
        for k in (1, 7, 63, 64, 65, 100):
            for lanes in (odd, slice(None)):
                want = np.array([gens[j].random(k) for j in np.arange(width)[lanes]])
                assert np.array_equal(streams.random(lanes, k), want)

    def test_negative_seed_or_path_rejected_as_numpy_does(self):
        for seed, path in ((-1, ()), (3, (2, -5))):
            with pytest.raises(ValueError):
                derive_generator(seed, *path, 0)
            with pytest.raises(ValueError):
                LaneStreams(seed, path, np.arange(2))

    def test_no_lanes(self):
        streams = LaneStreams(5, (1,), np.arange(4))
        assert streams.random(np.empty(0, dtype=np.intp), 3).shape == (0, 3)
        assert streams.random(slice(None), 0).shape == (4, 0)  # as Generator.random(0)
        assert np.array_equal(streams.random(slice(None), 2),
                              [derive_generator(5, 1, i).random(2) for i in range(4)])


class TestFitLognormal:
    def test_recovers_synthetic_parameters(self):
        rng = derive_generator(21)
        samples = np.exp(2.8 + 0.71 * ndtri(np.maximum(rng.random(10**5), 1e-300)))
        fit = fit_lognormal(samples)
        assert fit.mu_tilde == pytest.approx(2.8, abs=0.02)
        assert fit.sigma_tilde == pytest.approx(0.71, abs=0.02)
        assert fit.r_squared_log_bins > 0.99
        assert not math.isnan(fit.r_squared)

    def test_scale_equivariance(self):
        rng = derive_generator(22)
        samples = np.exp(1.0 + 0.4 * ndtri(np.maximum(rng.random(5000), 1e-300)))
        base = fit_lognormal(samples)
        scaled = fit_lognormal(7.0 * samples)
        assert scaled.mu_tilde - base.mu_tilde == pytest.approx(math.log(7.0), abs=1e-12)
        assert scaled.sigma_tilde == pytest.approx(base.sigma_tilde, abs=1e-12)

    def test_constant_samples_score_nan(self):
        fit = fit_lognormal(np.full(100, 4.0))
        assert fit.sigma_tilde == pytest.approx(0.0, abs=1e-15)
        assert math.isnan(fit.r_squared)
        assert math.isnan(fit.r_squared_log_bins)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0, 2.0, 0.0] * 20)
        with pytest.raises(ValueError):
            fit_lognormal([1.0] * 10)

    def test_scores_are_scipys(self):
        rng = derive_generator(23)
        samples = np.exp(6.3 + 0.4 * ndtri(np.maximum(rng.random(4000), 1e-300)))
        fit = fit_lognormal(samples)
        mu, sig = fit.mu_tilde, fit.sigma_tilde
        assert fit.r_squared == _histogram_r2(
            samples, lambda c: lognorm.pdf(c, s=sig, scale=math.exp(mu)))
        assert fit.r_squared_log_bins == _histogram_r2(
            np.log(samples), lambda c: norm.pdf(c, loc=mu, scale=sig))


positive = st.floats(min_value=1e-6, max_value=1e6)
spreads = st.floats(min_value=1e-3, max_value=10.0)
points = st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20)


class TestPdfs:
    """The fit's pdfs equal scipy.stats' bit for bit, so its scores do too."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(positive, min_size=1, max_size=20), spreads, positive)
    def test_lognorm_is_scipys(self, c, s, scale):
        c = np.array(c)
        assert np.array_equal(_lognorm_pdf(c, s, scale), lognorm.pdf(c, s=s, scale=scale))

    @settings(max_examples=200, deadline=None)
    @given(points, st.floats(min_value=-1e6, max_value=1e6), positive)
    def test_norm_is_scipys(self, c, loc, scale):
        c = np.array(c)
        assert np.array_equal(_norm_pdf(c, loc, scale), norm.pdf(c, loc=loc, scale=scale))


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
