"""Post-selected pointer analytics for pre/post-selected weak measurements.

A system prepared in psi_in is coupled to a Gaussian needle (spread sigma)
through exp(-i g A X), where A is a Hermitian observable with A^2 = 1, and
then post-selected on psi_fin. When the weak value of A is purely imaginary,
<A>_w = i b, the conditional needle wave function is proportional to
(cos(g x) + b sin(g x)) phi(x), giving the unnormalized reading density

    p(x) = (cos(g x) + b sin(g x))^2 N(x; 0, sigma^2).

Everything here is parametrized by the angle eta with b = cot(eta/2). The
shipped construction uses psi_fin = (|0> + |1>)/sqrt(2), A = PAULI_Y and the
input state family `input_state_for_eta`, for which the pre-coupling
post-selection probability is sin^2(eta/2).

Closed-form conditional moments (E = exp(-2 (g sigma)^2)):

    <X>   = sin(eta) 2 g sigma^2 / (exp(2 (g sigma)^2) - cos(eta))
    <X^2> = sigma^2 (1 - cos(eta) E (1 - 4 g^2 sigma^2)) / (1 - cos(eta) E)

Each analytic expression is paired with an adaptive-quadrature oracle over
the same density, and a rejection sampler draws exact conditional readings
for Monte Carlo validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from .qubit import QubitState
from .stats import _MIN_UNIFORM

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

EQUAL_SUPERPOSITION = QubitState(math.sqrt(0.5), math.sqrt(0.5))

_OBS_TOL = 1e-10
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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def b(self) -> float:
        """Imaginary part of the weak value, b = cot(eta/2)."""
        return 1.0 / math.tan(self.eta / 2.0)

    @property
    def a_plus(self) -> float:
        return 0.5 * (1.0 + self.b * self.b)

    @property
    def a_minus(self) -> float:
        return 0.5 * (1.0 - self.b * self.b)

    @property
    def postselect_prob(self) -> float:
        """Pre-coupling overlap probability |<psi_fin|psi_in>|^2 = sin^2(eta/2)."""
        return math.sin(self.eta / 2.0) ** 2


@dataclass
class WeakValue:
    re: float
    im: float


@dataclass
class MomentReport:
    """Conditional needle moments plus the post-selection bookkeeping.

    postselect_prob is the pre-coupling overlap sin^2(eta/2); acceptance_prob
    is the full post-coupling acceptance rate, which the coupling shifts
    slightly away from the overlap value.
    """

    mean: float
    second_moment: float
    variance: float
    postselect_prob: float
    acceptance_prob: float


def _validate_observable(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("observable must be a 2x2 matrix")
    if not np.allclose(a, a.conj().T, atol=_OBS_TOL, rtol=0.0):
        raise ValueError("observable must be Hermitian")
    if not np.allclose(a @ a, np.eye(2), atol=_OBS_TOL, rtol=0.0):
        raise ValueError("observable must square to the identity")
    return a


def _amplitudes(state) -> np.ndarray:
    if isinstance(state, QubitState):
        return np.array([state.alpha, state.beta], dtype=complex)
    arr = np.asarray(state, dtype=complex).reshape(2)
    return arr


def weak_value(psi_in, psi_fin, a) -> WeakValue:
    """<psi_fin|A|psi_in> / <psi_fin|psi_in> for an involutory Hermitian A."""
    a = _validate_observable(a)
    v_in = _amplitudes(psi_in)
    v_fin = _amplitudes(psi_fin)
    den = complex(np.vdot(v_fin, v_in))
    if abs(den) <= 1e-12:
        raise ValueError("pre- and post-selection are orthogonal; weak value undefined")
    num = complex(np.vdot(v_fin, a @ v_in))
    w = num / den
    return WeakValue(w.real, w.imag)


def input_state_for_eta(eta: float) -> QubitState:
    """Input state whose weak value against EQUAL_SUPERPOSITION and PAULI_Y is i cot(eta/2).

    Amplitudes ((cos(eta/2)+sin(eta/2))/sqrt2, -(cos(eta/2)-sin(eta/2))/sqrt2);
    the post-selection probability is sin^2(eta/2).
    """
    if not 0.0 < eta <= math.pi:
        raise ValueError("eta must lie in (0, pi]")
    c = math.cos(eta / 2.0)
    s = math.sin(eta / 2.0)
    inv_sqrt2 = math.sqrt(0.5)
    return QubitState((c + s) * inv_sqrt2, -(c - s) * inv_sqrt2)


def mean_fin(setup: TsvfSetup) -> float:
    """Conditional needle mean, sin(eta) 2 g sigma^2 / (exp(2(g sigma)^2) - cos eta)."""
    gs2 = (setup.g * setup.sigma) ** 2
    return math.sin(setup.eta) * 2.0 * setup.g * setup.sigma ** 2 / (
        math.exp(2.0 * gs2) - math.cos(setup.eta)
    )


def mean_fin_from_weak_value(b: float, g: float, sigma: float) -> float:
    """Conditional mean in the raw mixture form, from the weak value b directly.

    Uses the closed Gaussian moments <X sin 2gX> = 2 g sigma^2 E and
    <cos 2gX> = E with E = exp(-2 (g sigma)^2); algebraically identical to
    the eta-parametrized `mean_fin`.
    """
    a_plus = 0.5 * (1.0 + b * b)
    a_minus = 0.5 * (1.0 - b * b)
    E = math.exp(-2.0 * (g * sigma) ** 2)
    return b * 2.0 * g * sigma ** 2 * E / (a_plus + a_minus * E)


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


def second_moment_fin(setup: TsvfSetup) -> float:
    """Conditional second moment of the needle reading."""
    gs2 = (setup.g * setup.sigma) ** 2
    E = math.exp(-2.0 * gs2)
    cos_eta = math.cos(setup.eta)
    num = 1.0 - cos_eta * E * (1.0 - 4.0 * gs2)
    den = 1.0 - cos_eta * E
    return setup.sigma ** 2 * num / den


def analytic_moments(setup: TsvfSetup) -> MomentReport:
    """Closed-form MomentReport for a setup."""
    m1 = mean_fin(setup)
    m2 = second_moment_fin(setup)
    E = math.exp(-2.0 * (setup.g * setup.sigma) ** 2)
    acceptance = 0.5 * (1.0 - math.cos(setup.eta) * E)
    return MomentReport(m1, m2, m2 - m1 * m1, setup.postselect_prob, acceptance)


def needle_density(x, setup: TsvfSetup):
    """Unnormalized conditional reading density (cos gx + b sin gx)^2 N(x; 0, sigma^2).

    Includes the Gaussian normalizer, so the total mass is
    a_plus + a_minus exp(-2 (g sigma)^2). Accepts scalars or arrays.
    """
    x_arr = np.asarray(x, dtype=float)
    sig = setup.sigma
    gauss = np.exp(-x_arr * x_arr / (2.0 * sig * sig)) / (sig * math.sqrt(2.0 * math.pi))
    out = (np.cos(setup.g * x_arr) + setup.b * np.sin(setup.g * x_arr)) ** 2 * gauss
    return float(out) if np.isscalar(x) else out


def _quad(f, lo, hi, scale: float):
    value, abserr, *_ = quad(f, lo, hi, epsabs=QUAD_TOL * scale * 1e-2,
                             epsrel=1e-12, limit=500, full_output=1)
    if abserr > QUAD_TOL * scale:
        raise QuadratureError(
            f"quadrature achieved absolute error {abserr:.3e}, "
            f"needed {QUAD_TOL * scale:.3e}"
        )
    return value


def quadrature_moments(setup: TsvfSetup) -> MomentReport:
    """Oracle MomentReport: adaptive quadrature of the conditional density."""
    lim = QUAD_RANGE_SIGMAS * setup.sigma
    dens = lambda x: needle_density(x, setup)
    mass = _quad(dens, -lim, lim, 1.0 * setup.a_plus)
    m1 = _quad(lambda x: x * dens(x), -lim, lim, setup.sigma * mass) / mass
    m2 = _quad(lambda x: x * x * dens(x), -lim, lim, setup.sigma ** 2 * mass) / mass
    acceptance = setup.postselect_prob * mass
    return MomentReport(m1, m2, m2 - m1 * m1, setup.postselect_prob, acceptance)


def rejection_sample_batch(setup: TsvfSetup, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Accepted readings among n_draws attempts; stream-equivalent to n calls with n_draws=1.

    Each attempt draws x ~ N(0, sigma^2) and accepts it with probability
    sin^2(eta/2) (cos gx + b sin gx)^2, which never exceeds 1 since
    sin^2(eta/2) (1 + b^2) = 1. Accepted readings follow the normalized
    conditional density. Consumes two uniforms per attempt.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    u = rng.random(2 * n_draws)
    x = setup.sigma * ndtri(np.maximum(u[0::2], _MIN_UNIFORM))
    p_accept = setup.postselect_prob * (
        np.cos(setup.g * x) + setup.b * np.sin(setup.g * x)
    ) ** 2
    return x[u[1::2] < p_accept]


@dataclass
class SeparationReport:
    """Exact one-sample discrimination numbers for two setups sharing (g, sigma)."""

    setup_1: TsvfSetup
    setup_2: TsvfSetup
    moments_1: MomentReport
    moments_2: MomentReport
    quadrature_1: MomentReport
    quadrature_2: MomentReport
    mean_gap: float
    bayes_error: float


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
    overlap = _quad(
        lambda x: min(needle_density(x, s1) / z1, needle_density(x, s2) / z2),
        -lim, lim, 1.0,
    )
    return SeparationReport(
        setup_1=s1,
        setup_2=s2,
        moments_1=a1,
        moments_2=a2,
        quadrature_1=q1,
        quadrature_2=q2,
        mean_gap=a1.mean - a2.mean,
        bayes_error=0.5 * overlap,
    )
