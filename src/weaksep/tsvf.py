"""Post-selected pointer analytics for pre/post-selected weak measurements.

A system prepared in psi_in is coupled to a Gaussian needle (spread sigma)
through exp(-i g A X), where A is a Hermitian observable with A^2 = 1, and
then post-selected on psi_fin. When the weak value of A is purely imaginary,
<A>_w = i b, the conditional needle wave function is proportional to
(cos(g x) + b sin(g x)) phi(x), giving the unnormalized reading density

    p(x) = (cos(g x) + b sin(g x))^2 N(x; 0, sigma^2).

Everything here is parametrized by the angle eta with b = cot(eta/2). One
construction is psi_fin = (|0> + |1>)/sqrt(2), A = Pauli Y and the input
state ((cos(eta/2) + sin(eta/2))|0> - (cos(eta/2) - sin(eta/2))|1>)/sqrt(2),
for which the pre-coupling post-selection probability is sin^2(eta/2).

Closed-form conditional moments (E = exp(-2 (g sigma)^2)), all computed in
`analytic_moments`:

    <X>   = sin(eta) 2 g sigma^2 / (exp(2 (g sigma)^2) - cos(eta))
    <X^2> = sigma^2 (1 - cos(eta) E (1 - 4 g^2 sigma^2)) / (1 - cos(eta) E)

Each is paired with an adaptive-quadrature oracle: the package's port of
QUADPACK's QAGS (`weaksep.quadpack`) evaluates `needle_density` on arrays of
Gauss-Kronrod nodes, 42 per bisection. The density one float at a time, the
weak value and a rejection sampler are the tests' oracles, not the package's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

QUAD_RANGE_SIGMAS = 12.0  # density mass beyond 12 sigma is < 1e-30 here
QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature cannot reach the requested tolerance."""


@dataclass(frozen=True)
class TsvfSetup:
    """One pre/post-selected experiment: angle eta, coupling g, needle spread sigma."""

    eta: float
    g: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.eta <= math.pi:
            raise ValueError(
                f"eta must lie in (0, pi]; eta={self.eta} has no post-selected signal"
            )
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")
        if not (self.sigma > 0 and self.sigma * self.sigma > 0):
            raise ValueError(f"sigma must be positive, with a nonzero square; got {self.sigma}")

    @cached_property
    def b(self) -> float:
        """Imaginary part of the weak value, b = cot(eta/2)."""
        return 1.0 / math.tan(self.eta / 2.0)

    @property
    def a_plus(self) -> float:
        return 0.5 * (1.0 + self.b * self.b)

    @property
    def postselect_prob(self) -> float:
        """Pre-coupling overlap probability |<psi_fin|psi_in>|^2 = sin^2(eta/2)."""
        return math.sin(self.eta / 2.0) ** 2


@dataclass
class MomentReport:
    """Conditional needle moments plus the post-selection bookkeeping.

    postselect_prob is the pre-coupling overlap sin^2(eta/2); acceptance_prob
    is the full post-coupling acceptance rate, which the coupling shifts
    slightly away from the overlap value. A quadrature report also counts its
    integrand evaluations and its worst abserr / tolerance; closed forms give 0.
    """

    mean: float
    second_moment: float
    variance: float
    postselect_prob: float
    acceptance_prob: float
    evaluations: int = 0
    worst_err_ratio: float = 0.0


def optimal_eta(g: float, sigma: float) -> tuple[float, float]:
    """Angle maximizing the conditional mean, and that maximum.

    The maximum sits at cos(eta) = exp(-2 (g sigma)^2) and equals
    2 g sigma^2 / sqrt(exp(4 (g sigma)^2) - 1).
    """
    if g * sigma <= 0:
        raise ValueError("g * sigma must be positive; the deflection is identically 0")
    gs2 = (g * sigma) ** 2
    eta_star = math.acos(math.exp(-2.0 * gs2))
    mean_max = 2.0 * g * sigma ** 2 / math.sqrt(math.exp(4.0 * gs2) - 1.0)
    return eta_star, mean_max


def analytic_moments(setup: TsvfSetup) -> MomentReport:
    """Closed-form MomentReport for a setup: the module docstring's <X> and <X^2>,
    and the acceptance (1 - cos(eta) E) / 2."""
    gs2 = (setup.g * setup.sigma) ** 2
    E = math.exp(-2.0 * gs2)
    cos_eta = math.cos(setup.eta)
    sigma2 = setup.sigma ** 2
    m1 = math.sin(setup.eta) * 2.0 * setup.g * sigma2 / (math.exp(2.0 * gs2) - cos_eta)
    m2 = sigma2 * (1.0 - cos_eta * E * (1.0 - 4.0 * gs2)) / (1.0 - cos_eta * E)
    acceptance = 0.5 * (1.0 - cos_eta * E)
    return MomentReport(m1, m2, m2 - m1 * m1, setup.postselect_prob, acceptance)


def needle_density(x, setup: TsvfSetup):
    """Unnormalized conditional reading density (cos gx + b sin gx)^2 N(x; 0, sigma^2).

    Includes the Gaussian normalizer, so the total mass is
    (1 + b^2)/2 + (1 - b^2)/2 exp(-2 (g sigma)^2). x is a numpy array of nodes.
    """
    sig = setup.sigma
    gauss = np.exp(-x * x / (2.0 * sig * sig)) / (sig * math.sqrt(2.0 * math.pi))
    # np.float_power is libm's pow on each entry, as the tests' float oracle's math.pow;
    # `amp * amp` rounds differently and moves a moment's last bit
    gx = setup.g * x
    amp = np.cos(gx) + setup.b * np.sin(gx)
    return np.float_power(amp, 2.0) * gauss


def quad(f, lo, hi, epsabs, epsrel, limit):
    """weaksep.quadpack.qags, imported on the first call: only tsvf quadrature needs it."""
    from weaksep.quadpack import qags

    return qags(f, lo, hi, epsabs, epsrel, limit)


def _quad(f, lo, hi, scale: float):
    """(integral, integrand evaluations, abserr / tolerance) at tolerance QUAD_TOL * scale."""
    tol = QUAD_TOL * scale
    value, abserr, neval, _ = quad(f, lo, hi, tol * 1e-2, 1e-12, 500)
    if abserr > tol:
        raise QuadratureError(
            f"quadrature achieved absolute error {abserr:.3e}, needed {tol:.3e}")
    return value, neval, abserr / tol


def quadrature_moments(setup: TsvfSetup) -> MomentReport:
    """Oracle MomentReport: adaptive quadrature of the conditional density."""
    lim = QUAD_RANGE_SIGMAS * setup.sigma
    mass, n0, r0 = _quad(lambda x: needle_density(x, setup), -lim, lim, 1.0 * setup.a_plus)
    m1, n1, r1 = _quad(lambda x: x * needle_density(x, setup), -lim, lim, setup.sigma * mass)
    m2, n2, r2 = _quad(lambda x: x * x * needle_density(x, setup), -lim, lim,
                       setup.sigma ** 2 * mass)
    m1, m2 = m1 / mass, m2 / mass
    acceptance = setup.postselect_prob * mass
    return MomentReport(m1, m2, m2 - m1 * m1, setup.postselect_prob, acceptance,
                        n0 + n1 + n2, max(r0, r1, r2))


@dataclass
class SeparationReport:
    """Exact one-sample discrimination numbers for two setups sharing (g, sigma):
    closed-form moments, mean gap, Bayes error and the quadrature work behind them."""

    moments_1: MomentReport
    moments_2: MomentReport
    mean_gap: float
    bayes_error: float
    evaluations: int  # over all seven quadratures
    worst_err_ratio: float


def separation_report(eta1: float, eta2: float, g: float, sigma: float) -> SeparationReport:
    """Compare the conditional reading distributions of two eta choices.

    bayes_error is the exact equal-priors one-sample error,
    (1/2) integral of min(p1, p2) over the normalized densities, by
    adaptive quadrature.
    """
    s1 = TsvfSetup(eta1, g, sigma)
    s2 = TsvfSetup(eta2, g, sigma)
    a1 = analytic_moments(s1)
    a2 = analytic_moments(s2)
    q1 = quadrature_moments(s1)
    q2 = quadrature_moments(s2)
    lim = QUAD_RANGE_SIGMAS * sigma
    z1 = q1.acceptance_prob / s1.postselect_prob
    z2 = q2.acceptance_prob / s2.postselect_prob
    overlap, n, r = _quad(lambda x: np.minimum(needle_density(x, s1) / z1,
                                                 needle_density(x, s2) / z2),
                          -lim, lim, 1.0)
    return SeparationReport(a1, a2, a1.mean - a2.mean, 0.5 * overlap,
                            q1.evaluations + q2.evaluations + n,
                            max(q1.worst_err_ratio, q2.worst_err_ratio, r))
