"""weaksep.quadpack.qags against scipy.integrate.quad, bit for bit.

scipy runs QUADPACK's dqagse with the integrand called at one float at a
time; the port calls it on arrays of nodes. Given the same integrand values,
both must return the same value, error estimate, evaluation count and ier,
compared with ==.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import needle_density_float
from weaksep import quadpack, tsvf
from weaksep.experiments import default_parameters
from weaksep.quadpack import qags
from weaksep.tsvf import TsvfSetup, optimal_eta, quadrature_moments, separation_report

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
    """The array integrand of `qags` that calls the float function f at each node."""
    return lambda xs: np.array([f(x) for x in xs.tolist()])


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
    """(lo, hi, epsabs, epsrel, limit) and the result of every tsvf.quad call of run()."""
    calls = []
    real = tsvf.quad

    def recorded(f, *args):
        result = real(f, *args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(tsvf, "quad", recorded)
    run()
    return calls


def moment_integrands(setup):
    """The scalar oracles of quadrature_moments' mass, first and second moment integrands."""
    return [lambda x: needle_density_float(x, setup),
            lambda x: x * needle_density_float(x, setup),
            lambda x: x * x * needle_density_float(x, setup)]


class TestTsvfQuadratures:
    def test_every_moment_integral_of_the_default_report_grid(self, monkeypatch):
        params = default_parameters("tsvf-report")
        extrapolations = counted_extrapolations(monkeypatch)
        for g in params["g_grid"]:
            for sigma in params["sigma_grid"]:
                for eta in params["eta_grid"]:
                    setup = TsvfSetup(eta, g, sigma)
                    calls = recorded_quadratures(monkeypatch,
                                                 lambda: quadrature_moments(setup))
                    assert len(calls) == 3
                    for f, (args, result) in zip(moment_integrands(setup), calls):
                        assert result == scipy_qags(f, *args)
        assert extrapolations  # the tsvf traffic runs the epsilon algorithm too

    def test_every_integral_of_the_default_separation(self, monkeypatch):
        g, sigma = 0.05, 2.0
        eta1, _ = optimal_eta(g, sigma)
        s1, s2 = TsvfSetup(eta1, g, sigma), TsvfSetup(2.0, g, sigma)
        z1, z2 = (quadrature_moments(s).acceptance_prob / s.postselect_prob for s in (s1, s2))
        calls = recorded_quadratures(monkeypatch,
                                     lambda: separation_report(eta1, 2.0, g, sigma))

        def overlap(x):
            return min(needle_density_float(x, s1) / z1, needle_density_float(x, s2) / z2)

        integrands = moment_integrands(s1) + moment_integrands(s2) + [overlap]
        assert len(calls) == len(integrands) == 7
        for f, (args, result) in zip(integrands, calls):
            assert result == scipy_qags(f, *args)
        assert [ier for _, (*_, ier) in calls] == [0] * 7


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
        result = qags(node_by_node(f), 0.0, 1.0, epsabs, epsrel, limit)
        assert result == scipy_qags(f, 0.0, 1.0, epsabs, epsrel, limit)
        assert result[3] == ier
        assert extrapolations  # dqelg ran, so the epsilon table is checked too

    def test_first_rule_alone(self):
        # a polynomial the 21-point rule integrates at once: one call, 21 nodes
        def f(x):
            return 3.0 * x * x

        result = qags(node_by_node(f), 0.0, 2.0, 1.49e-8, 1.49e-8, 50)
        assert result == scipy_qags(f, 0.0, 2.0, 1.49e-8, 1.49e-8, 50)
        assert result[2:] == (21, 0)

    @pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-10, 1e-12, 0), (0.0, 1e-15, 50)])
    def test_invalid_input_raises_as_scipy_does(self, epsabs, epsrel, limit):
        with pytest.raises(ValueError):
            scipy_qags(math.sin, 0.0, 1.0, epsabs, epsrel, limit)
        with pytest.raises(ValueError):
            qags(node_by_node(math.sin), 0.0, 1.0, epsabs, epsrel, limit)
