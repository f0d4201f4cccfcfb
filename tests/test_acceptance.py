"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL (details)` line (visible
with `pytest -s` or in the captured output of failures). All checks run on
the fixed master seed below and full-scale trial counts.

Known red: `test_c04_fig2_lognormal_location`. The targeted log-location
window [2.5, 3.1] for the collapse-time distribution at sigma=20 with
boundaries (10, 80) is not attainable: the back-action moves the state's
log-odds by 2x/sigma^2 per reading, so the median collapse time is
~1.3 sigma^2 steps (~536 at sigma=20), giving a log-location near 6.3.
The window corresponds to a needle of spread ~3.5 (variance ~12), not 20.
The shape and goodness-of-fit windows do hold and are asserted separately.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.optimize import minimize_scalar
from scipy.stats import kstest

from oracles import (bias_update, born_probabilities, derive_generator, posterior_weight,
                     rejection_sample_batch)
from weaksep.discriminate import (
    average_cdf,
    hypothesis_success_curves,
)
from weaksep.experiments import ExperimentSpec, run
from weaksep.qubit import (
    helstrom_bound,
    make_discrimination_pair,
    state_from_angle,
)
from weaksep.stats import fit_lognormal, quadratic_scaling_fit
from weaksep.tsvf import (
    TsvfSetup,
    analytic_moments,
    needle_density,
    optimal_eta,
    quadrature_moments,
    separation_report,
)
from weaksep.walk import (
    Outcome,
    PointerModel,
    WalkBoundaries,
    run_ensemble,
)

MASTER_SEED = 20260811

GRID_G = (0.01, 0.05, 0.1, 0.5)
GRID_SIGMA = (1.0, 2.0, 5.0)
GRID_ETA = (0.05, 0.2, math.pi / 4, math.pi / 2, 2.5)


def _finish(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c01_helstrom_table():
    worst = 0.0
    for theta in range(10, 100, 10):
        want = 0.5 * (1.0 + math.sin(math.radians(theta)))
        worst = max(worst, abs(helstrom_bound(float(theta)) - want))
    _finish("01 helstrom-table", worst < 1e-12, f"worst abs err {worst:.2e}")


def test_c02_posterior_oracle_equivalence():
    rng = derive_generator(MASTER_SEED, 2)
    worst = 0.0
    for _ in range(10**4):
        sigma = float(rng.uniform(1.0, 30.0))
        pm = PointerModel(sigma)
        s0 = state_from_angle(float(rng.uniform(1.0, 89.0)))
        length = int(rng.integers(1, 51))
        shifts = np.where(rng.random(length) < 0.5, 1.0, -1.0)
        readings = shifts + sigma * rng.standard_normal(length)
        s = s0
        for x in readings:
            s = bias_update(s, float(x), pm)
        iterated = born_probabilities(s)[0]
        closed = posterior_weight(math.fsum(readings), s0, pm)
        worst = max(worst, abs(iterated - closed))
    _finish("02 posterior-oracle", worst < 1e-12, f"worst abs diff {worst:.2e}")


def test_c03_born_rule_convergence():
    pm = PointerModel(5.0)
    wb = WalkBoundaries(0.1, 89.9)
    details = []
    ok = True
    angles = (20.0, 45.0, 70.0)
    ens = run_ensemble([(state_from_angle(angle), pm, (3, k)) for k, angle in enumerate(angles)],
                       wb, 10**5, MASTER_SEED)
    for angle, labels in zip(angles, ens.labels):
        got = float(np.mean(labels == Outcome.ZERO))
        want = born_probabilities(state_from_angle(angle))[0]
        details.append(f"a0={angle:g}: {got:.4f} vs {want:.4f}")
        ok = ok and abs(got - want) < 0.02
    _finish("03 born-convergence", ok, "; ".join(details))


@pytest.fixture(scope="module")
def fig2_fit():
    ens = run_ensemble([(state_from_angle(45.0), PointerModel(20.0), (4,))],
                       WalkBoundaries(10.0, 80.0), 10**4, MASTER_SEED)
    collapsed = ens.steps[ens.labels != Outcome.MAXED_OUT].astype(float)
    return fit_lognormal(collapsed)


def test_c04_fig2_lognormal_shape(fig2_fit):
    fit = fig2_fit
    ok = 0.5 <= fit.sigma_tilde <= 0.9 and fit.r_squared > 0.95
    _finish("04 fig2-shape", ok,
            f"sigma~={fit.sigma_tilde:.3f} in [0.5,0.9], r2={fit.r_squared:.4f}>0.95")


def test_c04_fig2_lognormal_location(fig2_fit):
    fit = fig2_fit
    ok = 2.5 <= fit.mu_tilde <= 3.1
    _finish("04 fig2-location", ok,
            f"mu~={fit.mu_tilde:.3f} required in [2.5,3.1]; "
            f"median steps {math.exp(fit.mu_tilde):.0f}")


def test_c05_fig3_quadratic_scaling():
    sigmas = [5.0, 10.0, 15.0, 20.0, 25.0]
    wb = WalkBoundaries(10.0, 80.0)
    s0 = state_from_angle(45.0)
    ens = run_ensemble([(s0, PointerModel(sigma), (5, k)) for k, sigma in enumerate(sigmas)],
                       wb, 10**4, MASTER_SEED)
    medians = np.median(ens.steps, axis=1).tolist()
    coeff, r2 = quadratic_scaling_fit(sigmas, medians)
    _finish("05 fig3-quadratic", r2 > 0.98,
            f"medians={medians}, c={coeff:.3f}, r2={r2:.5f}>0.98")


def test_c06_fig4_success_vs_helstrom(tmp_path):
    thetas = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    pairs = [(10.0, 80.0), (5.0, 85.0), (1.0, 89.0)]
    curves = []
    for j, (a0, a1) in enumerate(pairs):
        params = {"theta_grid": thetas, "boundaries": [a0, a1], "sigma": 5.0, "trials": 1000}
        run(ExperimentSpec("fig4", params, MASTER_SEED + j, str(tmp_path / str(j))))
        curves.append(np.genfromtxt(tmp_path / str(j) / "fig4_success.csv", delimiter=",",
                                    names=True))
    tight = curves[-1]
    ok = True
    details = []
    for k, theta in enumerate(thetas):
        margin = tight["success"][k] - (tight["helstrom"][k] - 2 * tight["stderr"][k])
        ok = ok and margin >= 0
        gaps = [c["success"][k] - c["helstrom"][k] for c in curves]
        for j in range(len(pairs) - 1):
            slack = 3 * math.hypot(curves[j]["stderr"][k], curves[j + 1]["stderr"][k])
            ok = ok and gaps[j + 1] <= gaps[j] + slack
        details.append(f"t={theta:g}: s={tight['success'][k]:.3f} "
                       f"gaps={['%.3f' % g for g in gaps]}")
    _finish("06 fig4-above-helstrom", ok, "; ".join(details))


def test_c07_fig5_ordering_and_helstrom_cap():
    thetas = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
    curves = hypothesis_success_curves(thetas, [5, 10, 20], PointerModel(3.0),
                                       5000, MASTER_SEED)
    ok = True
    for k in range(len(thetas)):
        for m_lo, m_hi in ((5, 10), (10, 20)):
            slack = 3 * math.hypot(curves[m_lo].stderr[k], curves[m_hi].stderr[k])
            ok = ok and curves[m_hi].success[k] >= curves[m_lo].success[k] - slack
        for m in (5, 10, 20):
            ok = ok and curves[m].success[k] <= (
                curves[m].helstrom[k] + 3 * curves[m].stderr[k])
    mid = thetas.index(50.0)
    detail = " ".join(f"m{m}@50deg={curves[m].success[mid]:.3f}" for m in (5, 10, 20))
    _finish("07 fig5-ordering", ok, detail + f" helstrom={helstrom_bound(50.0):.3f}")


def test_c08_fig6_median_stability():
    _, psi2 = make_discrimination_pair(50.0)
    pm = PointerModel(3.0)
    trials = 5000
    medians = {}
    se = {}
    for m in (5, 10, 20):
        cdf = average_cdf(psi2, m, pm, trials, MASTER_SEED + m)
        medians[m] = cdf.median
        se[m] = 1.2533 * float(np.std(cdf.values)) / math.sqrt(trials)
    ok = True
    for m_a, m_b in ((5, 10), (5, 20), (10, 20)):
        tol = 3 * math.hypot(se[m_a], se[m_b])
        ok = ok and abs(medians[m_a] - medians[m_b]) <= tol
    _finish("08 fig6-median", ok,
            " ".join(f"m{m}={medians[m]:.3f}+-{se[m]:.3f}" for m in medians))


def test_c09_tsvf_analytic_oracle_grid():
    worst_mean = worst_second = 0.0
    setups = [TsvfSetup(eta, g, sigma)
              for g in GRID_G for sigma in GRID_SIGMA for eta in GRID_ETA]
    for setup, orc in zip(setups, quadrature_moments(setups)):
        ana = analytic_moments(setup)
        worst_mean = max(worst_mean, abs(ana.mean - orc.mean)
                         / max(abs(ana.mean), 1e-300))
        worst_second = max(worst_second,
                           abs(ana.second_moment - orc.second_moment)
                           / abs(ana.second_moment))
    worst_id = 0.0
    for g in GRID_G:
        for sigma in GRID_SIGMA:
            pdf = lambda x: math.exp(-x * x / (2 * sigma**2)) / (
                sigma * math.sqrt(2 * math.pi))
            lim = 12 * sigma
            E = math.exp(-2 * (g * sigma) ** 2)
            i1, _ = quad(lambda x: math.cos(2 * g * x) * pdf(x), -lim, lim,
                         epsabs=1e-13, limit=300)
            i2, _ = quad(lambda x: x * math.sin(2 * g * x) * pdf(x), -lim, lim,
                         epsabs=1e-13, limit=300)
            i3, _ = quad(lambda x: x * x * math.cos(2 * g * x) * pdf(x), -lim, lim,
                         epsabs=1e-13, limit=300)
            worst_id = max(worst_id, abs(i1 - E), abs(i2 - 2 * g * sigma**2 * E),
                           abs(i3 - sigma**2 * E * (1 - 4 * g**2 * sigma**2)))
    ok = worst_mean < 1e-8 and worst_second < 1e-8 and worst_id < 1e-10
    _finish("09 tsvf-oracle-grid", ok,
            f"worst rel: mean {worst_mean:.2e}, second {worst_second:.2e}; "
            f"identities {worst_id:.2e}")


def test_c10_optimal_deflection():
    values = {}
    for gs in (0.1, 0.05, 0.01):
        g, sigma = gs / 2.0, 2.0
        eta_star, mean_max = optimal_eta(g, sigma)
        # independent check: numeric maximization of the mean over eta
        res = minimize_scalar(lambda e: -analytic_moments(TsvfSetup(e, g, sigma)).mean,
                              bounds=(1e-6, math.pi), method="bounded",
                              options={"xatol": 1e-12})
        numeric_max = -res.fun
        assert abs(numeric_max - mean_max) < 1e-9 * sigma
        values[gs] = mean_max / sigma
    ok = abs(values[0.1] - 0.9900168330780612) < 1e-6
    ok = ok and values[0.1] < values[0.05] < values[0.01] < 1.0
    _finish("10 optimal-deflection", ok,
            " ".join(f"gs={gs}: {values[gs]:.7f}" for gs in values))


def test_c11_sampler_validation():
    setup = TsvfSetup(2.0, 0.05, 2.0)
    [report] = quadrature_moments([setup])
    n = 10**6
    accepted = rejection_sample_batch(setup, n, derive_generator(MASTER_SEED, 11))
    rate = accepted.size / n
    p = report.acceptance_prob
    ok = abs(rate - p) < 3 * math.sqrt(p * (1 - p) / n)
    se_mean = float(accepted.std()) / math.sqrt(accepted.size)
    ok = ok and abs(float(accepted.mean()) - report.mean) < 3 * se_mean
    var = float(accepted.var())
    se_var = math.sqrt(2.0 / (accepted.size - 1)) * var  # normal approximation
    ok = ok and abs(var - report.variance) < 3 * se_var
    xs = np.linspace(-12 * setup.sigma, 12 * setup.sigma, 20001)
    pdf = needle_density(xs, setup)
    cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1])
                                                * np.diff(xs))])
    cdf_grid /= cdf_grid[-1]
    ks = kstest(accepted, lambda v: np.interp(v, xs, cdf_grid))
    ok = ok and ks.pvalue > 0.01
    _finish("11 sampler", ok,
            f"rate {rate:.5f} vs {p:.5f}; mean {accepted.mean():.4f} vs "
            f"{report.mean:.4f}; ks p={ks.pvalue:.3f}")


def test_c12_separation_honesty():
    g, sigma = 0.05, 2.0
    eta1, mean_max = optimal_eta(g, sigma)
    report = separation_report(eta1, 2.0, g, sigma)
    ok = abs(report.moments_1.mean - mean_max) < 1e-12
    ok = ok and abs(report.mean_gap - (report.moments_1.mean
                                       - report.moments_2.mean)) < 1e-12
    # exact second-moment values, including the 1.980 sigma^2 at eta1 (the
    # near-zero-variance narrative is NOT asserted)
    ok = ok and abs(report.moments_1.second_moment / sigma**2
                    - 1.980133329777913) < 1e-12
    ok = ok and report.moments_1.variance > 0.9 * sigma**2
    setups = (TsvfSetup(eta1, g, sigma), TsvfSetup(2.0, g, sigma))
    oracles = quadrature_moments(setups)
    for setup, mom in zip(setups, (report.moments_1, report.moments_2)):
        ok = ok and abs(mom.postselect_prob
                        - math.sin(setup.eta / 2.0) ** 2) < 1e-12
    for mom, orc in zip((report.moments_1, report.moments_2), oracles):
        ok = ok and abs(mom.mean - orc.mean) < 1e-8 * sigma
        ok = ok and abs(mom.second_moment - orc.second_moment) < 1e-8 * sigma**2
    xs = np.linspace(-12 * sigma, 12 * sigma, 96001)
    z1, z2 = (orc.acceptance_prob / setup.postselect_prob
              for orc, setup in zip(oracles, setups))
    grid_bayes = 0.5 * simpson(np.minimum(needle_density(xs, setups[0]) / z1,
                                          needle_density(xs, setups[1]) / z2),
                               x=xs)
    ok = ok and abs(report.bayes_error - grid_bayes) < 1e-6
    _finish("12 separation-honesty", ok,
            f"gap={report.mean_gap:.4f} var1={report.moments_1.variance:.4f} "
            f"var2={report.moments_2.variance:.4f} bayes={report.bayes_error:.4f}")
