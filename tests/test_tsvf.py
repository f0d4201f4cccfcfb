import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.stats import kstest

from oracles import (EQUAL_SUPERPOSITION, PAULI_Y, PAULI_Z, derive_generator,
                     input_state_for_eta, needle_density_float, rejection_sample_batch,
                     weak_value)
from weaksep import tsvf
from weaksep.qubit import QubitState
from weaksep.tsvf import (
    QuadratureError,
    TsvfSetup,
    analytic_moments,
    needle_density,
    optimal_eta,
    quadrature_moments,
    separation_report,
)


def mean_fin_from_weak_value(b: float, g: float, sigma: float) -> float:
    """Conditional mean in the raw mixture form, from the weak value b directly.

    Uses the closed Gaussian moments <X sin 2gX> = 2 g sigma^2 E and
    <cos 2gX> = E with E = exp(-2 (g sigma)^2); algebraically identical to
    the eta-parametrized mean of `analytic_moments`.
    """
    a_plus = 0.5 * (1.0 + b * b)
    a_minus = 0.5 * (1.0 - b * b)
    E = math.exp(-2.0 * (g * sigma) ** 2)
    return b * 2.0 * g * sigma ** 2 * E / (a_plus + a_minus * E)


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
        for g, sigma in ((1.7e308, 2.0), (1.0, math.inf)):  # g * sigma overflows
            with pytest.raises(ValueError):
                TsvfSetup(1.0, g, sigma)
            with pytest.raises(ValueError):
                optimal_eta(g, sigma)

    def test_derived_quantities(self):
        s = TsvfSetup(math.pi / 2, 0.1, 2.0)
        assert s.b == pytest.approx(1.0, abs=1e-12)
        assert s.a_plus == pytest.approx(1.0, abs=1e-12)
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
        assert analytic_moments(TsvfSetup(1.0, 0.0, 2.0)).mean == 0.0

    def test_vanishing_eta_limit(self):
        assert analytic_moments(TsvfSetup(1e-9, 0.1, 2.0)).mean == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(etas, st.floats(min_value=1e-3, max_value=0.5), spreads)
    @example(eta=0.02, g=0.001, sigma=1.0159769581769804)  # kappa ~ 4949
    def test_matches_raw_weak_value_form(self, eta, g, sigma):
        # the closed-form mean divides by exp(2 (g sigma)^2) - cos(eta), whose condition number
        # kappa reaches about 5e3 on these strategies; the + 1 covers the other roundings
        setup = TsvfSetup(eta, g, sigma)
        direct = analytic_moments(setup).mean
        mixture = mean_fin_from_weak_value(setup.b, g, sigma)
        e2 = math.exp(2.0 * (g * sigma) ** 2)
        kappa = e2 / (e2 - math.cos(eta))
        rel = 8 * (kappa + 1) * sys.float_info.epsilon
        assert direct == pytest.approx(mixture, rel=rel, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(etas, st.floats(min_value=1e-3, max_value=0.5), spreads)
    def test_nonnegative_and_bounded_by_max(self, eta, g, sigma):
        setup = TsvfSetup(eta, g, sigma)
        value = analytic_moments(setup).mean
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
        assert analytic_moments(TsvfSetup(eta_star, g, sigma)).mean == pytest.approx(
            mean_max, rel=1e-12)
        for delta in (-1e-3, 1e-3):
            assert analytic_moments(TsvfSetup(eta_star + delta, g, sigma)).mean <= mean_max
        grid = np.linspace(1e-3, math.pi, 4001)
        values = [analytic_moments(TsvfSetup(e, g, sigma)).mean for e in grid]
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
                assert analytic_moments(setup).second_moment == pytest.approx(
                    sigma * sigma, rel=1e-14)

    def test_weak_coupling_limit_at_fixed_eta(self):
        setup = TsvfSetup(1.0, 1e-3, 1.0)
        assert analytic_moments(setup).second_moment == pytest.approx(1.0, rel=1e-5)

    def test_value_at_optimal_eta(self):
        g, sigma = 0.05, 2.0
        eta_star, _ = optimal_eta(g, sigma)
        got = analytic_moments(TsvfSetup(eta_star, g, sigma)).second_moment
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
        assert quadrature_moments([setup])[0].mean == pytest.approx(0.0, abs=1e-10)

    # the package evaluates the density on arrays of nodes, scipy's quad (the
    # tests' oracle) the float form at one x at a time
    @settings(max_examples=100, deadline=None)
    @given(etas, couplings, spreads, st.floats(min_value=-12.0, max_value=12.0))
    def test_float_is_the_array_entry(self, eta, g, sigma, t):
        setup = TsvfSetup(eta, g, sigma)
        x = t * sigma
        assert needle_density_float(x, setup) == needle_density(np.array([x]), setup)[0]

    def test_float_is_the_array_entry_on_a_grid(self):
        for eta, g, sigma in [(0.2, 0.05, 2.0), (0.7, 0.3, 1.0), (2.5, 0.5, 5.0)]:
            setup = TsvfSetup(eta, g, sigma)
            xs = np.linspace(-12 * sigma, 12 * sigma, 3001)
            singles = [needle_density_float(float(x), setup) for x in xs]
            assert np.array_equal(singles, needle_density(xs, setup))

    def test_total_mass_identity(self):
        for g, sigma, eta in [(0.1, 2.0, 0.3), (0.5, 1.0, 2.5)]:
            setup = TsvfSetup(eta, g, sigma)
            mass, _ = quad(lambda x: needle_density_float(x, setup),
                           -12 * sigma, 12 * sigma, limit=300)
            want = setup.a_plus + (1 - setup.b ** 2) / 2 * math.exp(-2 * (g * sigma) ** 2)
            assert mass == pytest.approx(want, rel=1e-10)


class TestQuadratureOracle:
    def test_runs_through_the_module_level_quad(self, monkeypatch):
        # bench/tracer.py times quadrature by rebinding tsvf.quad
        assert vars(tsvf)["quad"].__module__ == "weaksep.tsvf"
        calls = []
        real = tsvf.quad

        def counted(f, problems):
            calls.append([problem[:2] for problem in problems])
            return real(f, problems)

        monkeypatch.setattr(tsvf, "quad", counted)
        separation_report(0.4, 2.0, 0.05, 2.0)
        # the masses of both setups, then their four moments, then the overlap alone
        assert calls == [[(-24.0, 24.0)] * 2, [(-24.0, 24.0)] * 4, [(-24.0, 24.0)]]

    @pytest.mark.parametrize("run, setups", [
        (quadrature_moments, [TsvfSetup(0.2, 0.05, 2.0)]),
        (quadrature_moments, [TsvfSetup(2.5, 0.5, 5.0)]),
        (quadrature_moments, [TsvfSetup(math.pi, 1.0, 0.5)]),
        (lambda s: [separation_report(s[0].eta, s[1].eta, 0.05, 2.0)],
         [TsvfSetup(optimal_eta(0.05, 2.0)[0], 0.05, 2.0), TsvfSetup(2.0, 0.05, 2.0)]),
    ])
    def test_density_is_the_array_entry_at_every_quadpack_point(self, monkeypatch, run,
                                                                setups):
        # the tsvf CSVs' quadrature columns are made of these values, one batch of
        # Gauss-Kronrod nodes per round: a row of 21 for each interval in flight
        batches = []
        real = tsvf.quad

        def recorded(f, problems):
            def f_recorded(x, owners):
                batches.append(x.copy())
                return f(x, owners)
            return real(f_recorded, problems)

        monkeypatch.setattr(tsvf, "quad", recorded)
        reports = run(setups)
        # the headlines' count
        assert sum(x.size for x in batches) == sum(r.evaluations for r in reports)
        assert {(x.dtype, x.ndim, x.shape[1]) for x in batches} == {(np.dtype(np.float64), 2,
                                                                      21)}
        for setup in setups:
            for x in batches:
                singles = [needle_density_float(v, setup) for v in x.ravel().tolist()]
                assert np.array_equal(singles, needle_density(x, setup).ravel())

    def test_no_coupling_moments(self):
        [report] = quadrature_moments([TsvfSetup(1.0, 0.0, 2.0)])
        assert report.mean == pytest.approx(0.0, abs=1e-10)
        assert report.second_moment == pytest.approx(4.0, rel=1e-10)

    def test_analytic_agreement_spot_checks(self):
        for g, sigma, eta in [(0.05, 2.0, 0.2), (0.5, 5.0, 2.5), (0.01, 1.0, 0.05)]:
            setup = TsvfSetup(eta, g, sigma)
            ana = analytic_moments(setup)
            [orc] = quadrature_moments([setup])
            assert orc.mean == pytest.approx(ana.mean, rel=1e-8, abs=1e-12)
            assert orc.second_moment == pytest.approx(ana.second_moment, rel=1e-8)

    def test_acceptance_probability_reported_both_ways(self):
        setup = TsvfSetup(0.7, 0.1, 2.0)
        [report] = quadrature_moments([setup])
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
        [report] = quadrature_moments([setup])
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

    def test_an_overlap_past_its_tolerance_raises_an_arithmetic_error(self):
        # strong coupling: both setups' moments pass, the overlap integral misses
        with pytest.raises(QuadratureError) as failed:
            separation_report(optimal_eta(2.0, 1.0)[0], 2.0, 2.0, 1.0)
        assert isinstance(failed.value, ArithmeticError)
        assert str(failed.value) == ("quadrature achieved absolute error 3.162e-09, "
                                     "needed 1.000e-10")

    def test_a_nan_error_estimate_misses_its_tolerance(self):
        passed, failed = tsvf._integrals(lambda x, owners: np.full_like(x, np.nan), [1.0], [1.0])
        assert passed == [] and isinstance(failed, QuadratureError)

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
        s1, s2 = TsvfSetup(eta1, g, sigma), TsvfSetup(2.0, g, sigma)
        xs = np.linspace(-12 * sigma, 12 * sigma, 96001)
        z1, z2 = (q.acceptance_prob / s.postselect_prob
                  for q, s in zip(quadrature_moments([s1, s2]), (s1, s2)))
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
