"""The scalar reference the tests hold the package to, one trial at a time.

The package draws from one stream form, `stats.LaneStreams`, and walks on one
lockstep kernel over it. Here `derive_generator` builds one trial's stream as
a numpy Generator, the form each lane of `LaneStreams` must match bit for
bit; `run_walk` takes one trial's readings from it, and the decision
protocols build on it. Also: Born weights, the back-action of one reading
on a state, weak values, a rejection sampler of post-selected readings, the
post-selected needle density at one float, and the row-at-a-time CSV
writer. The package never imports this.

The step is written here again, not imported: `reading_from_uniforms`, the
log-odds update in `run_walk` and `bias_update` share no arithmetic with the
kernel or the trajectory dump, so the bit-for-bit tests check that arithmetic.
The package's definitions of a state's log-odds, a boundary and the smallest
uniform are shared.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit, ndtri

from weaksep.discriminate import Candidate
from weaksep.qubit import QubitState
from weaksep.stats import _MIN_UNIFORM, binomial_stderr
from weaksep.tsvf import TsvfSetup
from weaksep.walk import (Outcome, PointerModel, WalkBoundaries, default_max_steps,
                          run_ensemble, state_log_odds)


# stats, moved out of weaksep.stats

def derive_generator(master_seed: int, *stream_path: int) -> np.random.Generator:
    """Deterministic, practically independent generator for one stream index.

    The stream is a pure function of (master_seed, stream_path); nested paths
    namespace the streams of grid experiments, e.g. (theta_index, trial).
    This is the scalar path; `LaneStreams` holds the same streams as arrays.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(stream_path))
    return np.random.Generator(np.random.PCG64(ss))


# qubit, moved out of weaksep.qubit

def overlap(s1: QubitState, s2: QubitState) -> float:
    """Inner product of two real-amplitude states."""
    return s1.alpha * s2.alpha + s1.beta * s2.beta


def born_probabilities(s: QubitState) -> tuple[float, float]:
    """(P(|0>), P(|1>)) for a strong measurement in the computational basis."""
    return s.alpha * s.alpha, s.beta * s.beta


# walk, moved out of weaksep.walk

@dataclass
class WalkOutcome:
    """One trajectory: readings in order, step count, final state, collapse label."""

    steps: int
    readings: np.ndarray
    final_state: QubitState
    label: Outcome


def _state_from_log_odds(L: float) -> QubitState:
    return QubitState(math.sqrt(float(expit(L))), math.sqrt(float(expit(-L))))


def reading_from_uniforms(p_zero, u_branch, u_noise, g: float, sigma: float):
    """The needle readings of states of |0> weight p_zero, from the branch and noise
    uniforms: +g where u_branch < p_zero, else -g, plus sigma ndtri(u_noise).
    Accepts scalars or arrays."""
    shift = np.where(u_branch < p_zero, g, -g)
    return shift + sigma * ndtri(np.maximum(u_noise, _MIN_UNIFORM))


def bias_update(s: QubitState, x0: float, pm: PointerModel) -> QubitState:
    """Back-action of reading x0 on the state s: the amplitudes reweighted by the
    Gaussian branch weights and renormalized.

    The exponents are taken relative to their maximum, so one weight is exactly 1
    and the suppressed branch underflows to 0 instead of producing (0, 0).
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
    out = expit(state_log_odds(s0) + (2.0 * pm.g * S_arr) / (pm.sigma * pm.sigma))
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
        x = reading_from_uniforms(p, u1, u2, pm.g, pm.sigma)
        L = L + (2.0 * pm.g * x) / sig2  # the back-action in log-odds form
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


# discriminate, moved out of weaksep.discriminate

def candidate_of(s: QubitState) -> Candidate:
    """Which of the discrimination pair a state is: PSI1 sits above 45 degrees."""
    angle = s.angle_deg
    if angle > 45.0:
        return Candidate.PSI1
    if angle < 45.0:
        return Candidate.PSI2
    raise ValueError("state at exactly 45 degrees belongs to neither candidate")


@dataclass
class ProtocolResult:
    """Outcome of one discrimination trial."""

    guess: Candidate
    truth: Candidate
    statistic: float | None
    steps: int
    maxed_out: bool = False


def iterative_trial(
    truth_state: QubitState,
    wb: WalkBoundaries,
    pm: PointerModel,
    max_steps: int | None,
    rng: np.random.Generator,
) -> ProtocolResult:
    """Walk to a collapse boundary, then decide by a strong measurement."""
    truth = candidate_of(truth_state)
    outcome = run_walk(truth_state, pm, wb, max_steps, rng)
    strong = strong_measure(outcome.final_state, rng)
    guess = Candidate.PSI1 if strong == Outcome.ONE else Candidate.PSI2
    return ProtocolResult(
        guess=guess,
        truth=truth,
        statistic=None,
        steps=outcome.steps,
        maxed_out=outcome.label == Outcome.MAXED_OUT,
    )


def strong_zero_probability(angle_deg: float) -> float:
    """P(strong measurement gives ZERO) for the state at the given angle."""
    return math.cos(math.radians(angle_deg)) ** 2


def compose_error(
    weak_zero: float, weak_one: float, wb: WalkBoundaries, truth: Candidate
) -> tuple[float, float]:
    """Compose walk-branch frequencies with the analytic strong-measurement factors.

    weak_zero and weak_one are the frequencies of collapsing toward |0> and
    |1>; the strong factors are evaluated at the boundary angles. Returns
    (error, success); the two sum to weak_zero + weak_one exactly.
    """
    f0 = strong_zero_probability(wb.a0_tilde)
    f1 = strong_zero_probability(wb.a1_tilde)
    if truth == Candidate.PSI1:
        err = weak_zero * f0 + weak_one * f1
    else:
        err = weak_zero * (1.0 - f0) + weak_one * (1.0 - f1)
    return err, (weak_zero + weak_one) - err


@dataclass
class ErrorDecomposition:
    """Walk-branch frequencies composed with analytic strong-measurement factors."""

    truth: Candidate
    weak_zero: float
    weak_one: float
    strong_zero_from_a0: float
    strong_zero_from_a1: float
    error: float
    success: float
    stderr: float
    maxed_fraction: float
    trials: int


def error_decomposition(
    truth_state: QubitState,
    wb: WalkBoundaries,
    pm: PointerModel,
    trials: int,
    master_seed: int,
    max_steps: int | None = None,
) -> ErrorDecomposition:
    """Estimate the two-factor error of the iterative protocol.

    The weak-branch frequencies are taken among collapsed walks (walks that
    exhaust the step budget are reported via maxed_fraction and excluded), so
    error + success = 1 exactly. The Monte Carlo standard error reflects the
    binomial uncertainty of the branch split.

    Conjectured but not asserted: as the boundaries tighten toward the axes
    the composed error appears to approach the projective-optimum error
    (1 - sin theta)/2 from below; the record reports measured numbers only.
    """
    truth = candidate_of(truth_state)
    ens = run_ensemble([(truth_state, pm, ())], wb, trials, master_seed, max_steps)
    n_zero = int(np.sum(ens.labels == Outcome.ZERO))
    n_one = int(np.sum(ens.labels == Outcome.ONE))
    collapsed = n_zero + n_one
    if collapsed == 0:
        weak_zero = weak_one = err = success = se = float("nan")
    else:
        weak_zero = n_zero / collapsed
        weak_one = n_one / collapsed
        err, success = compose_error(weak_zero, weak_one, wb, truth)
        f0 = strong_zero_probability(wb.a0_tilde)
        f1 = strong_zero_probability(wb.a1_tilde)
        se = abs(f1 - f0) * binomial_stderr(n_one, collapsed)
    return ErrorDecomposition(
        truth=truth,
        weak_zero=weak_zero,
        weak_one=weak_one,
        strong_zero_from_a0=strong_zero_probability(wb.a0_tilde),
        strong_zero_from_a1=strong_zero_probability(wb.a1_tilde),
        error=err,
        success=success,
        stderr=se,
        maxed_fraction=1.0 - collapsed / trials,
        trials=trials,
    )


def hypothesis_trial(
    truth_state: QubitState,
    m: int,
    pm: PointerModel,
    rng: np.random.Generator,
) -> ProtocolResult:
    """Average exactly m weak readings and decide by the sign of the average."""
    if m < 1:
        raise ValueError("m must be >= 1")
    truth = candidate_of(truth_state)
    total = 0.0
    for x in run_walk(truth_state, pm, None, m, rng).readings.tolist():
        total += x  # left to right, as the lockstep engines accumulate
    mean = total / m
    if mean < 0.0:
        guess = Candidate.PSI1
    elif mean > 0.0:
        guess = Candidate.PSI2
    else:
        guess = Candidate.PSI1 if rng.random() < 0.5 else Candidate.PSI2
    return ProtocolResult(guess=guess, truth=truth, statistic=mean, steps=m)


# tsvf, moved out of weaksep.tsvf

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

EQUAL_SUPERPOSITION = QubitState(math.sqrt(0.5), math.sqrt(0.5))

_OBS_TOL = 1e-10


@dataclass
class WeakValue:
    re: float
    im: float


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


def needle_density_float(x: float, setup: TsvfSetup):
    """`tsvf.needle_density` at one float x, as scipy.integrate.quad passes it.

    Includes the Gaussian normalizer, so the total mass is
    a_plus + a_minus exp(-2 (g sigma)^2).
    """
    sig = setup.sigma
    # math.cos, math.sin and math.pow(amp, 2.0) equal np.cos, np.sin and np.float_power,
    # so each value is the package's array entry; math.exp is not numpy's exp (an ulp
    # off at about 5% of arguments), so the Gaussian keeps np.exp
    gauss = np.exp(-x * x / (2.0 * sig * sig)) / (sig * math.sqrt(2.0 * math.pi))
    gx = setup.g * x
    amp = math.cos(gx) + setup.b * math.sin(gx)
    return math.pow(amp, 2.0) * gauss


# experiments: the row writer that the columnar `_write_csv` replaced

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv_rows(path: Path, header: list[str], rows, files: list[Path]) -> None:
    """A CSV written a row at a time: `csv.writer` with `_fmt` on each value."""
    if path in files:  # e.g. two sigmas that print alike in a file name
        raise ValueError(f"two outputs of the run would both be {path.name}")
    files.append(path)  # before writing, so that a failed run removes a partial file
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def oracle_dump(s0, pm, wb, trials, master_seed, max_steps, seed_path=()):
    """The trajectory dump's bytes from run_walk's readings and bias_update."""
    lines = ["trial,step,reading,alpha,beta"]
    for i in range(trials):
        walk = run_walk(s0, pm, wb, max_steps, derive_generator(master_seed, *seed_path, i))
        s = s0
        for t, x in enumerate(walk.readings.tolist(), start=1):
            s = bias_update(s, x, pm)
            lines.append(f"{i},{t},{x!r},{s.alpha!r},{s.beta!r}")
    return ("\n".join(lines) + "\n").encode()
