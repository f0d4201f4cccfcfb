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
QUADPACK's QAGS (`weaksep.quadpack`), called through `quad`, integrates many
setups in lockstep, one `needle_density` call per round on a row of 21
Gauss-Kronrod nodes per interval, each row with its own setup's g, sigma and
b. A lone integral costs about twice as much, so callers pass every setup of
a run at once. The density one float at a time, the weak value and a
rejection sampler are the tests' oracles, not the package's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

QUAD_RANGE_SIGMAS = 12.0  # density mass beyond 12 sigma is < 1e-30 here
QUAD_TOL = 1e-10


class QuadratureError(ArithmeticError):
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
        if not (self.sigma > 0 and self.sigma * self.sigma > 0 and self.g * self.sigma < math.inf):
            raise ValueError(f"sigma must be positive, with a nonzero square and a finite "
                             f"g * sigma; got g={self.g}, sigma={self.sigma}")

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
    if not 0 < g * sigma < math.inf:
        raise ValueError(f"g * sigma must be positive (at 0 the deflection is identically 0) "
                         f"and finite; got {g} * {sigma}")
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


def needle_density(x, setup):
    """Unnormalized conditional reading density (cos gx + b sin gx)^2 N(x; 0, sigma^2).

    Includes the Gaussian normalizer, so the total mass is
    (1 + b^2)/2 + (1 - b^2)/2 exp(-2 (g sigma)^2). x is a numpy array of nodes; setup
    is a TsvfSetup, or anything whose g, sigma and b broadcast against x, such as a
    column per row of a batch of quadrature nodes (`_columns`).
    """
    sig = setup.sigma
    gauss = np.exp(-x * x / (2.0 * sig * sig)) / (sig * math.sqrt(2.0 * math.pi))
    # np.float_power is libm's pow on each entry, as the tests' float oracle's math.pow;
    # `amp * amp` rounds differently and moves a moment's last bit
    gx = setup.g * x
    amp = np.cos(gx) + setup.b * np.sin(gx)
    return np.float_power(amp, 2.0) * gauss


def _columns(setups):
    """owners -> the g, sigma and b of setups[owners], as columns against a node batch."""
    g, sigma, b = np.array([(s.g, s.sigma, s.b) for s in setups]).reshape(-1, 3).T[:, :, None]
    return lambda owners: SimpleNamespace(g=g[owners], sigma=sigma[owners], b=b[owners])


def quad(f, problems):
    """weaksep.quadpack.qags_many, imported on the first call: only tsvf quadrature needs it."""
    from weaksep.quadpack import qags_many

    return qags_many(f, problems)


def _integrals(f, lims, scales):
    """quad of f over each [-lim, lim], at tolerance QUAD_TOL * scale: the (integral,
    evaluations, abserr / tolerance) of each integral before the first that misses its
    tolerance, and that integral's QuadratureError (None if none misses)."""
    tols = [QUAD_TOL * scale for scale in scales]
    problems = [(-lim, lim, tol * 1e-2, 1e-12, 500) for lim, tol in zip(lims, tols)]
    passed = []
    for tol, (value, abserr, neval, _) in zip(tols, quad(f, problems)):
        if not abserr <= tol:  # a NaN abserr misses too
            return passed, QuadratureError(
                f"quadrature achieved absolute error {abserr:.3e}, needed {tol:.3e}")
        passed.append((value, neval, abserr / tol))
    return passed, None


def quadrature_moments(setups) -> list[MomentReport]:
    """Oracle MomentReports of a sequence of setups: adaptive quadrature of each
    conditional density, every mass integral in one `quad` call, then every <X> and
    <X^2> integral in another.

    A failure raises the QuadratureError that the setups one at a time would raise
    first: setup by setup, mass, then <X>, then <X^2>. A failed moment precedes the
    first failed mass, as the moments of setups from that mass on are not integrated."""
    lims = [QUAD_RANGE_SIGMAS * s.sigma for s in setups]
    columns = _columns(setups)
    masses, mass_error = _integrals(lambda x, owners: needle_density(x, columns(owners)),
                                    lims, [s.a_plus for s in setups])

    def moment(x, owners):  # problem 2i is the <X> of setup i, 2i + 1 its <X^2>
        power = np.where(owners[:, None] % 2 == 1, x * x, x)
        return power * needle_density(x, columns(owners // 2))

    moments, moment_error = _integrals(
        moment, [lim for lim in lims[:len(masses)] for _ in (1, 2)],
        [scale * mass for (mass, *_), s in zip(masses, setups)
         for scale in (s.sigma, s.sigma ** 2)])
    if mass_error or moment_error:
        raise moment_error or mass_error
    reports = []
    for setup, (mass, n0, r0), (m1, n1, r1), (m2, n2, r2) in zip(
            setups, masses, moments[0::2], moments[1::2]):
        m1, m2 = m1 / mass, m2 / mass
        reports.append(MomentReport(m1, m2, m2 - m1 * m1, setup.postselect_prob,
                                    setup.postselect_prob * mass, n0 + n1 + n2,
                                    max(r0, r1, r2)))
    return reports


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
    q1, q2 = quadrature_moments([s1, s2])
    z1 = q1.acceptance_prob / s1.postselect_prob
    z2 = q2.acceptance_prob / s2.postselect_prob
    # the one integral that runs alone: its integrand needs q1 and q2
    overlaps, error = _integrals(lambda x, _owners: np.minimum(needle_density(x, s1) / z1,
                                                               needle_density(x, s2) / z2),
                                 [QUAD_RANGE_SIGMAS * sigma], [1.0])
    if error:
        raise error
    [(overlap, n, r)] = overlaps
    return SeparationReport(a1, a2, a1.mean - a2.mean, 0.5 * overlap,
                            q1.evaluations + q2.evaluations + n,
                            max(q1.worst_err_ratio, q2.worst_err_ratio, r))
