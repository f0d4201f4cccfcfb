"""Few-shot hypothesis testing of the two candidate states, as ensembles.

Each trial performs exactly m weak measurements with no collapse boundary,
averages the readings and decides by the sign of the average (negative
means PSI1, since the |1> branch displaces the needle by -g). Ties at
exactly 0 are broken by one extra fair coin from the trial's stream. The
other protocol, iterative collapse, walks `walk.run_ensemble` to a boundary;
fig4 counts those walks itself and reports them through `success_curve`.

Curve ensembles draw the truth for each trial from the trial's own stream
(one uniform before the readings) and reuse each trial's reading prefix
across the m values, so success estimates for different m are coupled by
common random numbers. The sign-test curves and `average_cdf` take their
m-reading averages from one walk, `_reading_means`, of 2^14
(`walk._MAX_SLICE_LANES`) trials at a time, so they hold one slice's walk;
the curves keep win counts per (m, theta), not a result per trial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .qubit import QubitState, helstrom_bound, make_discrimination_pair
from .stats import binomial_stderr, empirical_cdf, EmpiricalCdf, LaneStreams
from .walk import _MAX_SLICE_LANES, PointerModel, _lockstep, state_log_odds


# fewest trials a sign-test success curve, and an average's CDF, is estimated from
MIN_CURVE_TRIALS = 100
MIN_CDF_TRIALS = 1000


class Candidate(enum.Enum):
    PSI1 = "psi1"
    PSI2 = "psi2"


@dataclass
class SuccessCurve:
    """Success frequencies over a theta grid with the projective optimum."""

    theta_grid: np.ndarray
    success: np.ndarray
    stderr: np.ndarray
    helstrom: np.ndarray


def _reading_means(L0, pm: PointerModel, m_values: list[int],
                   streams: LaneStreams) -> dict[int, np.ndarray]:
    """{m: each lane's mean of its first m readings} for the sorted m_values, from
    one no-boundary walk of m_values[-1] readings from the log-odds L0."""
    sums = np.zeros(L0.size)
    means = {}
    for t, lanes, x, _ in _lockstep(L0, pm, None, m_values[-1], streams):
        sums[lanes] += x
        if t in m_values:
            means[t] = sums / t
    return means


def success_curve(thetas: np.ndarray, wins: list[int], trials: int) -> SuccessCurve:
    """The curve of `wins[k]` successes in `trials` at each thetas[k]."""
    return SuccessCurve(thetas.copy(), np.array(wins) / trials,
                        np.array([binomial_stderr(w, trials) for w in wins]),
                        np.array([helstrom_bound(t) for t in thetas]))


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
    reading prefix then serves every m, and a tie's coins follow in
    ascending m. Each theta walks its trials 2^14 at a time, and each slice
    adds its wins to the counts; no result per trial is kept.
    """
    if trials < MIN_CURVE_TRIALS:
        raise ValueError(f"trials must be >= {MIN_CURVE_TRIALS}")
    m_values = sorted(set(int(m) for m in m_values))
    if min(m_values, default=0) < 1:
        raise ValueError("every m must be >= 1")
    thetas = np.asarray(theta_grid, dtype=float)
    wins = np.zeros((len(m_values), thetas.size), dtype=np.int64)
    for k, theta in enumerate(thetas):
        psi1, psi2 = make_discrimination_pair(theta)
        for lo in range(0, trials, _MAX_SLICE_LANES):
            lanes = np.arange(lo, min(lo + _MAX_SLICE_LANES, trials))
            streams = LaneStreams(master_seed, (k,), lanes)
            truth_is_1 = streams.random(slice(None), 1)[:, 0] < 0.5
            L0 = np.where(truth_is_1, state_log_odds(psi1), state_log_odds(psi2))
            for j, mr in enumerate(_reading_means(L0, pm, m_values, streams).values()):
                guess_is_1 = mr < 0.0
                tied = np.nonzero(mr == 0.0)[0]  # a tie's coin: its stream's next uniform
                guess_is_1[tied] = streams.random(tied, 1)[:, 0] < 0.5
                wins[j, k] += np.count_nonzero(guess_is_1 == truth_is_1)
    return {m: success_curve(thetas, row.tolist(), trials) for m, row in zip(m_values, wins)}


def average_cdf(
    truth_state: QubitState,
    m: int,
    pm: PointerModel,
    trials: int,
    master_seed: int,
) -> EmpiricalCdf:
    """Empirical CDF of the m-reading average for a fixed true state."""
    if trials < MIN_CDF_TRIALS:
        raise ValueError(f"trials must be >= {MIN_CDF_TRIALS}")
    if m < 1:
        raise ValueError("m must be >= 1")
    means = np.empty(trials)  # first, so that a count too large to hold fails at once
    for lo in range(0, trials, _MAX_SLICE_LANES):
        lanes = np.arange(lo, min(lo + _MAX_SLICE_LANES, trials))
        L0 = np.full(lanes.size, state_log_odds(truth_state))
        means[lanes] = _reading_means(L0, pm, [m], LaneStreams(master_seed, (), lanes))[m]
    return empirical_cdf(means)

