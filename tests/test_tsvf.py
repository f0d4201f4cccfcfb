import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.stats import kstest

from weaksep.qubit import QubitState
from weaksep.stats import derive_generator
from weaksep.tsvf import (
    EQUAL_SUPERPOSITION,
    PAULI_Y,
    PAULI_Z,
    TsvfSetup,
    analytic_moments,
    input_state_for_eta,
    mean_fin,
    mean_fin_from_weak_value,
    needle_density,
    optimal_eta,
    quadrature_moments,
    rejection_sample_batch,
    second_moment_fin,
    separation_report,
    weak_value,
)

GRID_G = (0.01, 0.05, 0.1, 0.5)
GRID_SIGMA = (1.0, 2.0, 5.0)
GRID_ETA = (0.05, 0.2, math.pi / 4, math.pi / 2, 2.5)

etas = st.floats(min_value=0.02, max_value=math.pi)
couplings = st.floats(min_value=0.0, max_value=0.5)
spreads = st.floats(min_value=0.5, max_value=5.0)


class TestSetup:
    def test_validation(self):
        with pytest.raises(ValueError):
            TsvfSetup(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            TsvfSetup(3.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            TsvfSetup(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            TsvfSetup(1.0, 0.1, 0.0)

    def test_derived_quantities(self):
        s = TsvfSetup(math.pi / 2, 0.1, 2.0)
        assert s.b == pytest.approx(1.0, abs=1e-12)
        assert s.a_plus == pytest.approx(1.0, abs=1e-12)
        assert s.a_minus == pytest.approx(0.0, abs=1e-12)
        assert s.postselect_prob == pytest.approx(0.5, abs=1e-12)


class TestWeakValue:
    def test_identical_pre_post_gives_expectation(self):
        zero = QubitState(1.0, 0.0)
        wv = weak_value(zero, zero, PAULI_Z)
        assert wv.re == pytest.approx(1.0, abs=1e-12)
        assert wv.im == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(etas)
    def test_construction_gives_imaginary_cot(self, eta):
        wv = weak_value(input_state_for_eta(eta), EQUAL_SUPERPOSITION, PAULI_Y)
        assert wv.re == pytest.approx(0.0, abs=1e-12)
        assert wv.im == pytest.approx(1.0 / math.tan(eta / 2.0), rel=1e-10, abs=1e-12)

    def test_orthogonal_selection_rejected(self):
        zero = QubitState(1.0, 0.0)
        one = QubitState(0.0, 1.0)
        with pytest.raises(ValueError):
            weak_value(zero, one, PAULI_Y)

    def test_observable_validation(self):
        zero = QubitState(1.0, 0.0)
        with pytest.raises(ValueError):
            weak_value(zero, zero, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            weak_value(zero, zero, 0.5 * PAULI_Y)


class TestInputState:
    def test_eta_pi_is_the_postselection_state(self):
        s = input_state_for_eta(math.pi)
        assert s.alpha == pytest.approx(EQUAL_SUPERPOSITION.alpha, abs=1e-12)
        assert s.beta == pytest.approx(EQUAL_SUPERPOSITION.beta, abs=1e-12)

    def test_eta_half_pi_is_zero_state(self):
        s = input_state_for_eta(math.pi / 2)
        assert s.alpha == pytest.approx(1.0, abs=1e-12)
        assert s.beta == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(etas)
    def test_postselection_probability(self, eta):
        s = input_state_for_eta(eta)
        ov = EQUAL_SUPERPOSITION.alpha * s.alpha + EQUAL_SUPERPOSITION.beta * s.beta
        assert ov * ov == pytest.approx(math.sin(eta / 2.0) ** 2, abs=1e-12)


class TestMeanFin:
    def test_no_coupling_no_deflection(self):
        assert mean_fin(TsvfSetup(1.0, 0.0, 2.0)) == 0.0

    def test_vanishing_eta_limit(self):
        assert mean_fin(TsvfSetup(1e-9, 0.1, 2.0)) == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(etas, st.floats(min_value=1e-3, max_value=0.5), spreads)
    def test_matches_raw_weak_value_form(self, eta, g, sigma):
        setup = TsvfSetup(eta, g, sigma)
        direct = mean_fin(setup)
        mixture = mean_fin_from_weak_value(setup.b, g, sigma)
        assert direct == pytest.approx(mixture, rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(etas, st.floats(min_value=1e-3, max_value=0.5), spreads)
    def test_nonnegative_and_bounded_by_max(self, eta, g, sigma):
        setup = TsvfSetup(eta, g, sigma)
        value = mean_fin(setup)
        _, mean_max = optimal_eta(g, sigma)
        assert -1e-15 <= value <= mean_max * (1 + 1e-12)


class TestOptimalEta:
    def test_frozen_values_at_reference_coupling(self):
        eta_star, mean_max = optimal_eta(0.05, 2.0)
        assert eta_star == pytest.approx(0.19933400475625357, abs=1e-12)
        assert mean_max / 2.0 == pytest.approx(0.9900168330780612, abs=1e-12)

    def test_is_the_argmax(self):
        g, sigma = 0.05, 2.0
        eta_star, mean_max = optimal_eta(g, sigma)
        assert mean_fin(TsvfSetup(eta_star, g, sigma)) == pytest.approx(
            mean_max, rel=1e-12)
        for delta in (-1e-3, 1e-3):
            assert mean_fin(TsvfSetup(eta_star + delta, g, sigma)) <= mean_max
        grid = np.linspace(1e-3, math.pi, 4001)
        values = [mean_fin(TsvfSetup(e, g, sigma)) for e in grid]
        assert max(values) <= mean_max + 1e-12
        assert abs(grid[int(np.argmax(values))] - eta_star) < 2e-3

    def test_strong_coupling_kills_deflection(self):
        _, mean_max = optimal_eta(5.0, 2.0)
        assert mean_max < 1e-15

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            optimal_eta(0.0, 2.0)


class TestSecondMoment:
    def test_right_angle_eta_is_sigma_squared(self):
        # exact up to the rounding of cos(pi/2) itself
        for g in GRID_G:
            for sigma in GRID_SIGMA:
                setup = TsvfSetup(math.pi / 2, g, sigma)
                assert second_moment_fin(setup) == pytest.approx(
                    sigma * sigma, rel=1e-14)

    def test_weak_coupling_limit_at_fixed_eta(self):
        setup = TsvfSetup(1.0, 1e-3, 1.0)
        assert second_moment_fin(setup) == pytest.approx(1.0, rel=1e-5)

    def test_value_at_optimal_eta(self):
        g, sigma = 0.05, 2.0
        eta_star, _ = optimal_eta(g, sigma)
        got = second_moment_fin(TsvfSetup(eta_star, g, sigma))
        assert got / sigma**2 == pytest.approx(1.980133329777913, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(etas, couplings, spreads)
    def test_variance_nonnegative(self, eta, g, sigma):
        report = analytic_moments(TsvfSetup(eta, g, sigma))
        assert report.variance >= -1e-10
        assert report.second_moment > 0


class TestNeedleDensity:
    def test_no_coupling_is_plain_gaussian(self):
        setup = TsvfSetup(1.0, 0.0, 2.0)
        xs = np.linspace(-8, 8, 50)
        want = np.exp(-xs**2 / 8.0) / (2.0 * math.sqrt(2 * math.pi))
        assert needle_density(xs, setup) == pytest.approx(want, rel=1e-12)

    def test_eta_pi_density_is_symmetric(self):
        setup = TsvfSetup(math.pi, 0.3, 2.0)
        xs = np.linspace(0.1, 8, 20)
        assert needle_density(xs, setup) == pytest.approx(
            needle_density(-xs, setup), rel=1e-12)
        assert quadrature_moments(setup).mean == pytest.approx(0.0, abs=1e-10)

    def test_total_mass_identity(self):
        for g, sigma, eta in [(0.1, 2.0, 0.3), (0.5, 1.0, 2.5)]:
            setup = TsvfSetup(eta, g, sigma)
            mass, _ = quad(lambda x: needle_density(x, setup),
                           -12 * sigma, 12 * sigma, limit=300)
            want = setup.a_plus + setup.a_minus * math.exp(-2 * (g * sigma) ** 2)
            assert mass == pytest.approx(want, rel=1e-10)


class TestQuadratureOracle:
    def test_no_coupling_moments(self):
        report = quadrature_moments(TsvfSetup(1.0, 0.0, 2.0))
        assert report.mean == pytest.approx(0.0, abs=1e-10)
        assert report.second_moment == pytest.approx(4.0, rel=1e-10)

    def test_analytic_agreement_spot_checks(self):
        for g, sigma, eta in [(0.05, 2.0, 0.2), (0.5, 5.0, 2.5), (0.01, 1.0, 0.05)]:
            setup = TsvfSetup(eta, g, sigma)
            ana = analytic_moments(setup)
            orc = quadrature_moments(setup)
            assert orc.mean == pytest.approx(ana.mean, rel=1e-8, abs=1e-12)
            assert orc.second_moment == pytest.approx(ana.second_moment, rel=1e-8)

    def test_acceptance_probability_reported_both_ways(self):
        setup = TsvfSetup(0.7, 0.1, 2.0)
        report = quadrature_moments(setup)
        assert report.postselect_prob == pytest.approx(
            math.sin(0.35) ** 2, abs=1e-12)
        want = 0.5 * (1.0 - math.cos(0.7) * math.exp(-2 * 0.04))
        assert report.acceptance_prob == pytest.approx(want, rel=1e-10)
        assert analytic_moments(setup).acceptance_prob == pytest.approx(want, rel=1e-12)


class TestRejectionSampler:
    def test_single_run_returns_reading_or_none(self):
        setup = TsvfSetup(2.0, 0.05, 2.0)
        rng = derive_generator(200)
        results = [rejection_sample_batch(setup, 1, rng) for _ in range(200)]
        assert all(r.size <= 1 for r in results)
        accepted = [r for r in results if r.size]
        assert 0 < len(accepted) < 200

    def test_batch_equals_singles(self):
        setup = TsvfSetup(2.0, 0.05, 2.0)
        singles = []
        rng1 = derive_generator(201)
        for _ in range(50):
            singles.extend(rejection_sample_batch(setup, 1, rng1))
        batch = rejection_sample_batch(setup, 50, derive_generator(201))
        assert singles == pytest.approx(list(batch), abs=0.0)

    def test_full_acceptance_case(self):
        setup = TsvfSetup(math.pi, 0.0, 2.0)
        batch = rejection_sample_batch(setup, 500, derive_generator(202))
        assert batch.size == 500

    def test_acceptance_rate_and_moments(self):
        setup = TsvfSetup(2.0, 0.05, 2.0)
        n = 10**5
        accepted = rejection_sample_batch(setup, n, derive_generator(203))
        report = quadrature_moments(setup)
        rate = accepted.size / n
        se = math.sqrt(report.acceptance_prob * (1 - report.acceptance_prob) / n)
        assert abs(rate - report.acceptance_prob) < 3 * se
        se_mean = accepted.std() / math.sqrt(accepted.size)
        assert abs(accepted.mean() - report.mean) < 3 * se_mean

    def test_accepted_sample_passes_ks(self):
        setup = TsvfSetup(2.0, 0.05, 2.0)
        accepted = rejection_sample_batch(setup, 10**5, derive_generator(204))
        sigma = setup.sigma
        xs = np.linspace(-12 * sigma, 12 * sigma, 20001)
        pdf = needle_density(xs, setup)
        cdf_grid = np.concatenate([[0.0], np.cumsum(
            0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
        cdf_grid /= cdf_grid[-1]
        result = kstest(accepted, lambda v: np.interp(v, xs, cdf_grid))
        assert result.pvalue > 0.01


class TestSeparationReport:
    def test_identical_setups(self):
        report = separation_report(0.7, 0.7, 0.05, 2.0)
        assert report.mean_gap == 0.0
        assert report.bayes_error == pytest.approx(0.5, abs=1e-6)

    def test_no_coupling(self):
        report = separation_report(0.4, 2.0, 0.0, 2.0)
        assert report.mean_gap == pytest.approx(0.0, abs=1e-15)
        assert report.bayes_error == pytest.approx(0.5, abs=1e-6)

    def test_reference_demo_numbers(self):
        g, sigma = 0.05, 2.0
        eta1, _ = optimal_eta(g, sigma)
        report = separation_report(eta1, 2.0, g, sigma)
        assert report.moments_1.mean / sigma == pytest.approx(
            0.9900168330780612, abs=1e-12)
        assert report.moments_2.mean / sigma == pytest.approx(
            0.12661239686252349, abs=1e-12)
        assert report.mean_gap == pytest.approx(
            (0.9900168330780612 - 0.12661239686252349) * sigma, abs=1e-12)
        assert report.moments_1.postselect_prob == pytest.approx(
            math.sin(eta1 / 2) ** 2, abs=1e-15)
        assert 0.0 < report.bayes_error < 0.5

    def test_bayes_error_against_grid_integration(self):
        g, sigma = 0.05, 2.0
        eta1, _ = optimal_eta(g, sigma)
        report = separation_report(eta1, 2.0, g, sigma)
        s1, s2 = report.setup_1, report.setup_2
        xs = np.linspace(-12 * sigma, 12 * sigma, 96001)
        z1 = report.quadrature_1.acceptance_prob / s1.postselect_prob
        z2 = report.quadrature_2.acceptance_prob / s2.postselect_prob
        integrand = np.minimum(needle_density(xs, s1) / z1,
                               needle_density(xs, s2) / z2)
        grid_value = 0.5 * simpson(integrand, x=xs)
        assert report.bayes_error == pytest.approx(grid_value, abs=1e-6)


class TestGaussianMomentIdentities:
    @pytest.mark.parametrize("g,sigma", [(0.05, 2.0), (0.1, 5.0), (0.5, 1.0)])
    def test_identities(self, g, sigma):
        norm_pdf = lambda x: np.exp(-x * x / (2 * sigma**2)) / (
            sigma * math.sqrt(2 * math.pi))
        lim = 12 * sigma
        E = math.exp(-2 * (g * sigma) ** 2)
        got1, _ = quad(lambda x: math.cos(2 * g * x) * norm_pdf(x), -lim, lim,
                       epsabs=1e-13, limit=300)
        assert abs(got1 - E) < 1e-10
        got2, _ = quad(lambda x: x * math.sin(2 * g * x) * norm_pdf(x), -lim, lim,
                       epsabs=1e-13, limit=300)
        assert abs(got2 - 2 * g * sigma**2 * E) < 1e-10
        got3, _ = quad(lambda x: x * x * math.cos(2 * g * x) * norm_pdf(x), -lim,
                       lim, epsabs=1e-13, limit=300)
        assert abs(got3 - sigma**2 * E * (1 - 4 * g**2 * sigma**2)) < 1e-10
