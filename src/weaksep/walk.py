"""Single weak measurements and the sequential collapse random walk.

Measurement model
-----------------
The measuring device is a Gaussian needle of spread sigma coupled at
strength g to the z-observable of the qubit (eigenvalue shifts +1 for |0>,
-1 for |1>). One weak measurement of the state alpha|0> + beta|1>:

* the needle reading x is drawn from the two-Gaussian mixture
  alpha^2 N(+g, sigma^2) + beta^2 N(-g, sigma^2);
* reading x back-acts on the state, reweighting the amplitudes by
  exp(-(x - g)^2 / 4 sigma^2) and exp(-(x + g)^2 / 4 sigma^2) and
  renormalizing.

In log-odds form L = ln(alpha^2/beta^2) the back-action is exactly
L -> L + 2 g x / sigma^2, which is how the walk is advanced internally.
Repeating the measurement with a recalibrated needle produces a biased
random walk of the state angle; crossing a threshold angle close to either
axis is treated as effective collapse.

Randomness contract
-------------------
Every weak measurement consumes exactly two uniform doubles from the
supplied generator: one for the branch choice (u < alpha^2 picks the +g
branch) and one mapped through the inverse normal CDF for the needle noise.
A strong measurement consumes one uniform.

Engines
-------
The step is written twice: once in the scalar reference `run_walk`, and once
in the private lockstep kernel `_lockstep`, which every ensemble uses (the
collapse ensembles of `run_ensemble` and the fixed-m sign tests of
`discriminate`). The kernel advances lane i on its own generator gens[i];
ensembles give trial i the derived stream
``stats.derive_generator(master_seed, *seed_path, i)``, so a trial's outcome
is a pure function of (master_seed, seed_path, trial index) and is
bit-identical to a standalone `run_walk` on the derived stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

from .qubit import QubitState
from .stats import _MIN_UNIFORM, derive_generator


@dataclass(frozen=True)
class PointerModel:
    """Gaussian needle: spread sigma, coupling g, eigenvalue shifts +/-1."""

    sigma: float
    g: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")

    @property
    def shifts(self) -> tuple[float, float]:
        """Needle displacement per z eigenstate, scaled by the coupling."""
        return (self.g, -self.g)


def _log_odds_of_angle(a_deg: float) -> float:
    """L = ln(alpha^2/beta^2) of the state at angle a; +inf at 0, -inf at 90."""
    if a_deg <= 0.0:
        return math.inf
    if a_deg >= 90.0:
        return -math.inf
    return -2.0 * math.log(math.tan(math.radians(a_deg)))


@dataclass(frozen=True)
class WalkBoundaries:
    """Effective-collapse thresholds (degrees) near |0> and |1>."""

    a0_tilde: float
    a1_tilde: float

    def __post_init__(self):
        if not (0.0 <= self.a0_tilde < self.a1_tilde <= 90.0):
            raise ValueError(
                f"boundaries must satisfy 0 <= a0 < a1 <= 90, got "
                f"({self.a0_tilde}, {self.a1_tilde})"
            )

    @property
    def log_odds_zero(self) -> float:
        """Crossing toward |0>: L >= this threshold."""
        return _log_odds_of_angle(self.a0_tilde)

    @property
    def log_odds_one(self) -> float:
        """Crossing toward |1>: L <= this threshold."""
        return _log_odds_of_angle(self.a1_tilde)


class Outcome(enum.IntEnum):
    ZERO = 0
    ONE = 1
    MAXED_OUT = 2


@dataclass
class WalkOutcome:
    """One trajectory: readings in order, step count, final state, collapse label."""

    steps: int
    readings: np.ndarray
    final_state: QubitState
    label: Outcome


def default_max_steps(pm: PointerModel) -> int:
    """Safety cap of 200 sigma^2 steps, far above observed collapse times."""
    return max(1, math.ceil(200.0 * pm.sigma * pm.sigma))


# Shared scalar/vector arithmetic so single walks and lockstep ensembles
# cannot drift apart numerically.

def _reading_from_uniforms(p_zero, u_branch, u_noise, g, sigma):
    shift = np.where(u_branch < p_zero, g, -g)
    z = ndtri(np.maximum(u_noise, _MIN_UNIFORM))
    return shift + sigma * z


def _advanced_log_odds(L, x, g, sig2):
    return L + (2.0 * g * x) / sig2


def _state_from_log_odds(L: float) -> QubitState:
    return QubitState(math.sqrt(float(expit(L))), math.sqrt(float(expit(-L))))


def state_log_odds(s: QubitState) -> float:
    """L = ln(alpha^2/beta^2) of a state; +inf at |0>, -inf at |1>."""
    if s.alpha == 0.0:
        return -math.inf
    if s.beta == 0.0:
        return math.inf
    return 2.0 * (math.log(abs(s.alpha)) - math.log(abs(s.beta)))


def bias_update(s: QubitState, x0: float, pm: PointerModel) -> QubitState:
    """Back-action of reading x0: reweight amplitudes by the Gaussian branch weights.

    The two exponents are taken relative to their maximum before
    exponentiating, so one weight is always exactly 1 and the suppressed
    branch underflows cleanly to 0 instead of producing (0, 0).
    """
    four_s2 = 4.0 * pm.sigma * pm.sigma
    e0 = -((x0 - pm.g) ** 2) / four_s2
    e1 = -((x0 + pm.g) ** 2) / four_s2
    m = max(e0, e1)
    w0 = s.alpha * math.exp(e0 - m)
    w1 = s.beta * math.exp(e1 - m)
    norm = math.hypot(w0, w1)
    return QubitState(w0 / norm, w1 / norm)


def posterior_weight(S, s0: QubitState, pm: PointerModel):
    """P(next reading comes from the +g branch) given past readings summing to S.

    The readings enter only through their sum: the posterior |0> weight is
    1 / (1 + (beta0^2/alpha0^2) exp(-2 g S / sigma^2)), identical to the
    |0> Born weight after iterating `bias_update` over any reading sequence
    with that sum. Accepts a scalar or an array of sums.
    """
    S_arr = np.asarray(S, dtype=float)
    if s0.alpha == 0.0:
        out = np.zeros_like(S_arr)
    elif s0.beta == 0.0:
        out = np.ones_like(S_arr)
    else:
        L0 = 2.0 * (math.log(abs(s0.alpha)) - math.log(abs(s0.beta)))
        out = expit(L0 + (2.0 * pm.g * S_arr) / (pm.sigma * pm.sigma))
    return float(out) if np.isscalar(S) else out


def strong_measure(s: QubitState, rng: np.random.Generator) -> Outcome:
    """Projective measurement in the computational basis (one uniform consumed)."""
    return Outcome.ZERO if rng.random() < s.alpha * s.alpha else Outcome.ONE


def run_walk(
    s0: QubitState,
    pm: PointerModel,
    wb: WalkBoundaries | None,
    max_steps: int | None,
    rng: np.random.Generator,
) -> WalkOutcome:
    """Weak-measure repeatedly until a collapse boundary is crossed.

    Stops at the first step whose updated state crosses either boundary (that
    reading is included) or after max_steps (label MAXED_OUT). A start state
    at or beyond a boundary returns immediately with 0 steps. With wb=None
    there is no boundary: exactly max_steps readings are taken.
    """
    if max_steps is None:
        max_steps = default_max_steps(pm)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    if wb is not None:
        l_zero = wb.log_odds_zero
        l_one = wb.log_odds_one
        angle = s0.angle_deg
        if angle <= wb.a0_tilde:
            return WalkOutcome(0, np.empty(0), s0, Outcome.ZERO)
        if angle >= wb.a1_tilde:
            return WalkOutcome(0, np.empty(0), s0, Outcome.ONE)

    sig2 = pm.sigma * pm.sigma
    L = state_log_odds(s0)
    readings = []
    label = Outcome.MAXED_OUT
    for _ in range(max_steps):
        p = expit(L)
        u1 = rng.random()
        u2 = rng.random()
        x = _reading_from_uniforms(p, u1, u2, pm.g, pm.sigma)
        L = _advanced_log_odds(L, x, pm.g, sig2)
        readings.append(float(x))
        if wb is None:
            continue
        if L >= l_zero:
            label = Outcome.ZERO
            break
        if L <= l_one:
            label = Outcome.ONE
            break
    return WalkOutcome(len(readings), np.asarray(readings), _state_from_log_odds(L), label)


@dataclass
class WalkEnsemble:
    """Order-insensitive aggregate of independent walk trials."""

    steps: np.ndarray
    labels: np.ndarray
    final_angles_deg: np.ndarray
    reading_sums: np.ndarray
    master_seed: int
    max_steps: int

    @property
    def trials(self) -> int:
        return self.steps.size

    def fraction(self, label: Outcome) -> float:
        return float(np.mean(self.labels == label))

    @property
    def median_steps(self) -> float:
        return float(np.median(self.steps))


_BLOCK_STEPS = 32  # uniforms are prefetched per lane in blocks of 2 * this


def _lockstep(L, pm: PointerModel, wb: WalkBoundaries | None, max_steps: int, gens):
    """The vectorized walk: lane i of L takes readings on its own stream gens[i].

    A lane stops after the reading whose updated log-odds crosses a boundary
    of wb, or after max_steps readings; wb=None means no boundary, so every
    lane takes exactly max_steps readings. L is updated in place. After each
    step t this yields (t, lanes, x, crossed): the lanes that took the step
    (an index array into L, or slice(None) for all of them), their readings,
    and the indices of the lanes that crossed a boundary on it. Each lane's
    arithmetic and uniform stream are exactly those of `run_walk`.
    """
    sig2 = pm.sigma * pm.sigma
    if wb is not None:
        l_zero = wb.log_odds_zero
        l_one = wb.log_odds_one
    no_lanes = np.empty(0, dtype=np.intp)
    active = np.arange(L.size)
    t = 0
    while active.size and t < max_steps:
        k = min(_BLOCK_STEPS, max_steps - t)
        block = np.empty((active.size, 2 * k))
        for row, lane in enumerate(active):
            block[row] = gens[lane].random(2 * k)
        # rows of the block still walking and their lanes; slices when none can stop
        alive = np.ones(active.size, dtype=bool)
        rows = lanes = slice(None)
        if wb is not None:
            rows, lanes = np.arange(active.size), active
        for i in range(k):
            t += 1
            L_lanes = L[lanes]
            x = _reading_from_uniforms(expit(L_lanes), block[rows, 2 * i],
                                       block[rows, 2 * i + 1], pm.g, pm.sigma)
            L_lanes = _advanced_log_odds(L_lanes, x, pm.g, sig2)
            L[lanes] = L_lanes
            crossed = no_lanes
            if wb is not None:
                done = (L_lanes >= l_zero) | (L_lanes <= l_one)
                crossed = lanes[done]
            yield t, lanes, x, crossed
            if crossed.size:
                alive[rows[done]] = False
                if not alive.any():
                    break
                rows = np.nonzero(alive)[0]
                lanes = active[rows]
        active = active[alive]


def run_ensemble(
    s0: QubitState,
    pm: PointerModel,
    wb: WalkBoundaries,
    trials: int,
    master_seed: int,
    max_steps: int | None = None,
    seed_path: tuple[int, ...] = (),
) -> WalkEnsemble:
    """Run `trials` independent walks on derived per-trial streams.

    Trial i consumes only the stream derived from (master_seed, *seed_path, i)
    and its outcome equals run_walk on that stream exactly; trials are
    advanced in lockstep purely for speed. seed_path namespaces ensembles that
    share one master seed (e.g. grid points of a curve).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_steps is None:
        max_steps = default_max_steps(pm)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    sums = np.zeros(trials, dtype=float)
    angle = s0.angle_deg
    if angle <= wb.a0_tilde or angle >= wb.a1_tilde:
        crossed = Outcome.ZERO if angle <= wb.a0_tilde else Outcome.ONE
        labels = np.full(trials, int(crossed), dtype=np.int8)
        return WalkEnsemble(np.zeros(trials, dtype=np.int64), labels,
                            np.full(trials, angle), sums, master_seed, max_steps)

    L = np.full(trials, state_log_odds(s0), dtype=float)
    gens = [derive_generator(master_seed, *seed_path, i) for i in range(trials)]
    steps = np.full(trials, max_steps, dtype=np.int64)
    for t, lanes, x, crossed in _lockstep(L, pm, wb, max_steps, gens):
        sums[lanes] += x
        steps[crossed] = t
    # every lane took at least one step, so its final L tells how it ended
    labels = np.select([L >= wb.log_odds_zero, L <= wb.log_odds_one],
                       [int(Outcome.ZERO), int(Outcome.ONE)],
                       int(Outcome.MAXED_OUT)).astype(np.int8)
    final_angles = np.degrees(np.arctan(np.exp(-0.5 * L)))
    return WalkEnsemble(steps, labels, final_angles, sums, master_seed, max_steps)
