"""Two-dimensional real-amplitude state algebra for the discrimination protocols.

States live on the unit circle, |psi> = alpha|0> + beta|1> with real
amplitudes. Angles are degrees at the API boundary (converted to radians
internally); the angle of a state is atan2(beta, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NORM_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Normalized real amplitude pair over the basis {|0>, |1>}."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        norm2 = self.alpha * self.alpha + self.beta * self.beta
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |alpha|^2+|beta|^2 = {norm2!r}")

    @property
    def angle_deg(self) -> float:
        return math.degrees(math.atan2(self.beta, self.alpha))


def state_from_angle(a_deg: float) -> QubitState:
    """State cos(a)|0> + sin(a)|1> for an angle in degrees."""
    a = math.radians(a_deg)
    return QubitState(math.cos(a), math.sin(a))


def overlap(s1: QubitState, s2: QubitState) -> float:
    """Inner product of two real-amplitude states."""
    return s1.alpha * s2.alpha + s1.beta * s2.beta


def make_discrimination_pair(theta_deg: float) -> tuple[QubitState, QubitState]:
    """The two candidate states separated by theta, symmetric about 45 degrees.

    Returns (psi1, psi2) at angles 45 + theta/2 and 45 - theta/2, so that
    overlap(psi1, psi2) = cos(theta). psi1 leans toward |1>, psi2 toward |0>.
    """
    if not 0.0 < theta_deg <= 90.0:
        raise ValueError(f"theta must be in (0, 90] degrees, got {theta_deg}")
    half = theta_deg / 2.0
    return state_from_angle(45.0 + half), state_from_angle(45.0 - half)


def helstrom_bound(theta_deg: float) -> float:
    """Optimal projective success probability for equiprobable states at angle theta.

    Equals (1 + sin theta)/2, the equal-priors case of the general optimum
    (1 + sqrt(1 - 4 l1 l2 cos^2 theta))/2.
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    return 0.5 * (1.0 + math.sin(math.radians(theta_deg)))


def born_probabilities(s: QubitState) -> tuple[float, float]:
    """(P(|0>), P(|1>)) for a strong measurement in the computational basis."""
    return s.alpha * s.alpha, s.beta * s.beta
