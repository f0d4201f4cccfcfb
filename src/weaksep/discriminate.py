"""Decision protocols for telling the two candidate states apart.

Two protocols are implemented:

* iterative collapse: walk the state to an effective-collapse boundary, then
  measure strongly; guess PSI1 (the candidate leaning toward |1>) when the
  strong outcome is ONE;
* few-shot hypothesis testing: perform exactly m weak measurements with no
  collapse boundary, average the readings and decide by the sign of the
  average (negative means PSI1, since the |1> branch displaces the needle
  by -g). Ties at exactly 0 are broken by one extra fair coin from the
  trial's stream.

Curve ensembles draw the truth for each trial from the trial's own stream
(one uniform before the readings) and reuse each trial's reading prefix
across the m values, so success estimates for different m are coupled by
common random numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qubit import QubitState, helstrom_bound, make_discrimination_pair
from .stats import binomial_stderr, derive_generator, empirical_cdf, EmpiricalCdf
from .walk import (
    Outcome,
    PointerModel,
    WalkBoundaries,
    _lockstep,
    run_ensemble,
    run_walk,
    state_log_odds,
    strong_measure,
)


class Candidate(enum.Enum):
    PSI1 = "psi1"
    PSI2 = "psi2"


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
    ens = run_ensemble(truth_state, pm, wb, trials, master_seed, max_steps)
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


@dataclass
class SuccessCurve:
    """Success frequencies over a theta grid with the projective optimum."""

    theta_grid: np.ndarray
    success: np.ndarray
    stderr: np.ndarray
    helstrom: np.ndarray


def hypothesis_success_curves(
    theta_grid,
    m_values,
    pm: PointerModel,
    trials: int,
    master_seed: int,
) -> dict[int, SuccessCurve]:
    """Success of the sign test for every theta and every m, on shared streams.

    Trial streams are derived from (master_seed, theta_index, trial). The
    first uniform of a trial picks the truth (PSI1 when u < 0.5); the same
    reading prefix then serves every m.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    m_values = sorted(set(int(m) for m in m_values))
    if m_values[0] < 1:
        raise ValueError("every m must be >= 1")
    thetas = np.asarray(theta_grid, dtype=float)
    success = {m: np.empty(thetas.size) for m in m_values}
    stderr = {m: np.empty(thetas.size) for m in m_values}
    for k, theta in enumerate(thetas):
        psi1, psi2 = make_discrimination_pair(theta)
        gens = [derive_generator(master_seed, k, i) for i in range(trials)]
        u_truth = np.array([g.random() for g in gens])
        truth_is_1 = u_truth < 0.5
        L0 = np.where(truth_is_1, state_log_odds(psi1), state_log_odds(psi2))
        sums = np.zeros(trials)
        means = {}
        for t, lanes, x, _ in _lockstep(L0, pm, None, m_values[-1], gens):
            sums[lanes] += x
            if t in m_values:
                means[t] = sums / t
        for m in m_values:
            mr = means[m]
            guess_is_1 = mr < 0.0
            for i in np.nonzero(mr == 0.0)[0]:
                guess_is_1[i] = gens[i].random() < 0.5
            wins = int(np.sum(guess_is_1 == truth_is_1))
            success[m][k] = wins / trials
            stderr[m][k] = binomial_stderr(wins, trials)
    hel = np.array([helstrom_bound(t) for t in thetas])
    return {
        m: SuccessCurve(thetas.copy(), success[m], stderr[m], hel.copy())
        for m in m_values
    }


def average_cdf(
    truth_state: QubitState,
    m: int,
    pm: PointerModel,
    trials: int,
    master_seed: int,
) -> EmpiricalCdf:
    """Empirical CDF of the m-reading average for a fixed true state."""
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    if m < 1:
        raise ValueError("m must be >= 1")
    gens = [derive_generator(master_seed, i) for i in range(trials)]
    L0 = np.full(trials, state_log_odds(truth_state))
    sums = np.zeros(trials)
    for _, lanes, x, _ in _lockstep(L0, pm, None, m, gens):
        sums[lanes] += x
    return empirical_cdf(sums / m)


def collapse_success_curve(
    theta_grid,
    wb: WalkBoundaries,
    pm: PointerModel,
    trials: int,
    master_seed: int,
    max_steps: int | None = None,
) -> SuccessCurve:
    """Fraction of PSI1 walks that collapse toward |1>, per theta.

    This is the weak-process success alone (no strong measurement); walks
    that exhaust the step budget count as failures.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    success = np.empty(thetas.size)
    stderr = np.empty(thetas.size)
    for k, theta in enumerate(thetas):
        psi1, _ = make_discrimination_pair(theta)
        ens = run_ensemble(psi1, pm, wb, trials, master_seed,
                           max_steps=max_steps, seed_path=(k,))
        wins = int(np.sum(ens.labels == Outcome.ONE))
        success[k] = wins / trials
        stderr[k] = binomial_stderr(wins, trials)
    hel = np.array([helstrom_bound(t) for t in thetas])
    return SuccessCurve(thetas, success, stderr, hel)
