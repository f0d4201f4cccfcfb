"""weaksep.quadpack.qags_many against scipy.integrate.quad, bit for bit.

scipy runs QUADPACK's dqagse with the integrand called at one float at a
time; the port calls it on arrays of nodes, a row per interval, for many
integrals at once. Given the same integrand values, both must return the same
value, error estimate, evaluation count and ier, compared with ==, whichever
integrals share the port's rounds.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import needle_density_float
from weaksep import quadpack, tsvf
from weaksep.experiments import default_parameters
from weaksep.quadpack import qags_many
from weaksep.tsvf import (QuadratureError, TsvfSetup, optimal_eta, quadrature_moments,
                          separation_report)

# scipy's quad names ier only in its message, whose first words are these
_IER_OF_MESSAGE = {"The maximum number of subdivisions": 1, "The occurrence of roundoff": 2,
                   "Extremely bad integrand behavior": 3, "The algorithm does not converge": 4,
                   "The integral is probably divergent": 5}


def scipy_qags(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, neval, ier) of scipy.integrate.quad on a finite interval."""
    value, abserr, info, *message = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                                         full_output=1)
    ier = next((k for words, k in _IER_OF_MESSAGE.items()
                if message and message[0].startswith(words)), 0)
    return value, abserr, info["neval"], ier


def node_by_node(f):
    """The (x, owners) integrand of `qags_many` that calls the float function f at each x."""
    return lambda xs, _owners: np.array([f(x) for x in xs.ravel().tolist()]).reshape(xs.shape)


def counted_extrapolations(monkeypatch):
    """A list that gets one entry per call of quadpack.dqelg from now on."""
    calls = []
    real = quadpack.dqelg

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(quadpack, "dqelg", counted)
    return calls


def recorded_quadratures(monkeypatch, run):
    """(lo, hi, epsabs, epsrel, limit) and the result of every problem of every tsvf.quad
    call of run(), in order."""
    calls = []
    real = tsvf.quad

    def recorded(f, problems):
        results = real(f, problems)
        calls.extend(zip(problems, results))
        return results

    monkeypatch.setattr(tsvf, "quad", recorded)
    run()
    return calls


def moment_integrands(setups):
    """The scalar oracles of quadrature_moments' integrands, in its order: the mass of
    each setup, then the first and second moment of each."""
    return ([lambda x, s=s: needle_density_float(x, s) for s in setups]
            + [f for s in setups for f in (lambda x, s=s: x * needle_density_float(x, s),
                                           lambda x, s=s: x * x * needle_density_float(x, s))])


# the benchmark's tsvf-report grid, 7 x 5 x 9 = 315 setups
BENCH_GRID = [TsvfSetup(eta, g, sigma) for g, sigma, eta in product(
    [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0], [0.5, 1.0, 2.0, 3.0, 5.0],
    [0.05, 0.2, 0.5, math.pi / 4, 1.0, math.pi / 2, 2.0, 2.5, 3.0])]


class TestTsvfQuadratures:
    def test_every_moment_integral_of_the_default_report_grid(self, monkeypatch):
        params = default_parameters("tsvf-report")
        extrapolations = counted_extrapolations(monkeypatch)
        setups = [TsvfSetup(eta, g, sigma) for g, sigma, eta in product(
            params["g_grid"], params["sigma_grid"], params["eta_grid"])]
        calls = recorded_quadratures(monkeypatch, lambda: quadrature_moments(setups))
        assert len(calls) == 3 * len(setups) == 180
        for f, (args, result) in zip(moment_integrands(setups), calls):
            assert result == scipy_qags(f, *args)
        assert extrapolations  # the tsvf traffic runs the epsilon algorithm too

    def test_every_integral_of_the_default_separation(self, monkeypatch):
        g, sigma = 0.05, 2.0
        eta1, _ = optimal_eta(g, sigma)
        s1, s2 = TsvfSetup(eta1, g, sigma), TsvfSetup(2.0, g, sigma)
        z1, z2 = (q.acceptance_prob / s.postselect_prob
                  for q, s in zip(quadrature_moments([s1, s2]), (s1, s2)))
        calls = recorded_quadratures(monkeypatch,
                                     lambda: separation_report(eta1, 2.0, g, sigma))

        def overlap(x):
            return min(needle_density_float(x, s1) / z1, needle_density_float(x, s2) / z2)

        integrands = moment_integrands([s1, s2]) + [overlap]
        assert len(calls) == len(integrands) == 7
        for f, (args, result) in zip(integrands, calls):
            assert result == scipy_qags(f, *args)
        assert [ier for _, (*_, ier) in calls] == [0] * 7


class TestBatching:
    def test_the_window_does_not_move_a_bit(self, monkeypatch):
        reports = quadrature_moments(BENCH_GRID)
        # one integral at a time, and every integral of a phase in flight at once
        for window in (1, 2 * len(BENCH_GRID)):
            monkeypatch.setattr(quadpack, "WINDOW", window)
            assert quadrature_moments(BENCH_GRID) == reports

    # 2e-12: only moments fail, the first at setup 117; 1e-12: a mass fails first, at
    # setup 6; 5e-13: setup 0's <X> fails, while the masses of setups 5 on fail too
    @pytest.mark.parametrize("quad_tol", [2e-12, 1e-12, 5e-13])
    def test_a_failing_grid_raises_what_the_setups_one_at_a_time_raise(self, monkeypatch,
                                                                        quad_tol):
        monkeypatch.setattr(tsvf, "QUAD_TOL", quad_tol)
        with pytest.raises(QuadratureError) as one_at_a_time:
            for setup in BENCH_GRID:
                quadrature_moments([setup])
        with pytest.raises(QuadratureError) as batched:
            quadrature_moments(BENCH_GRID)
        assert str(batched.value) == str(one_at_a_time.value)


class TestSingularIntegrands:
    # (integrand on [0, 1], epsabs, epsrel, limit, the ier both report)
    CASES = [
        (lambda x: math.log(abs(x - 0.3)) if x != 0.3 else 0.0, 1.49e-8, 1.49e-8, 10, 0),
        (lambda x: abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0, 0.0, 1e-12, 5, 1),
        (lambda x: x * x + 1e-9 * math.sin(1e7 * x), 0.0, 1e-12, 20, 2),
        (lambda x: 1.0 / abs(x - 0.3) if x != 0.3 else 0.0, 1.49e-8, 1.49e-8, 100, 3),
        (lambda x: abs(x - 0.3) ** -0.999 if x != 0.3 else 0.0, 0.0, 1e-12, 50, 4),
        (lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, 0.0, 1e-12, 20, 5),
    ]

    @pytest.mark.parametrize("f, epsabs, epsrel, limit, ier", CASES, ids=[
        "log", "inverse_sqrt", "noisy", "inverse_abs", "nearly_nonintegrable", "pole"])
    def test_equals_scipy_through_every_ier_and_extrapolation(self, monkeypatch, f, epsabs,
                                                              epsrel, limit, ier):
        extrapolations = counted_extrapolations(monkeypatch)
        result = qags_many(node_by_node(f), [(0.0, 1.0, epsabs, epsrel, limit)])[0]
        assert result == scipy_qags(f, 0.0, 1.0, epsabs, epsrel, limit)
        assert result[3] == ier
        assert extrapolations  # dqelg ran, so the epsilon table is checked too

    def test_first_rule_alone(self):
        # a polynomial the 21-point rule integrates at once: one call, 21 nodes
        def f(x):
            return 3.0 * x * x

        result = qags_many(node_by_node(f), [(0.0, 2.0, 1.49e-8, 1.49e-8, 50)])[0]
        assert result == scipy_qags(f, 0.0, 2.0, 1.49e-8, 1.49e-8, 50)
        assert result[2:] == (21, 0)

    @pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-10, 1e-12, 0), (0.0, 1e-15, 50)])
    def test_invalid_input_raises_as_scipy_does(self, epsabs, epsrel, limit):
        with pytest.raises(ValueError):
            scipy_qags(math.sin, 0.0, 1.0, epsabs, epsrel, limit)
        with pytest.raises(ValueError):
            qags_many(node_by_node(math.sin), [(0.0, 1.0, epsabs, epsrel, limit)])
