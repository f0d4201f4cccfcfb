"""Reproducible randomness and the statistical estimators used by the experiments.

Randomness contract
-------------------
All simulation randomness flows through numpy PCG64 generators. Independent
per-trial streams are derived from a master seed with numpy's SeedSequence
hash mixing, ``SeedSequence(master_seed, spawn_key=(stream_index,))``, so a
trial's stream is a pure function of (master_seed, stream_index) and results
do not depend on execution order.

Gaussian variates are produced by the inverse-CDF transform of the uniform
stream (one uniform double per variate, mapped through ndtri), never by
polar or rejection methods, so every reading sequence is a replayable pure
function of the uniform stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import lognorm, norm

PRNG_ALGORITHM = "numpy-pcg64/seedseq-spawn/ndtri-inverse-cdf"

# rng.random() lies in [0, 1); clip away an exact 0.0 so ndtri stays finite.
_MIN_UNIFORM = 1e-300

# fewest samples `fit_lognormal` fits
MIN_FIT_SAMPLES = 30


def derive_generator(master_seed: int, *stream_path: int) -> np.random.Generator:
    """Deterministic, practically independent generator for one stream index.

    The stream is a pure function of (master_seed, stream_path); nested paths
    namespace the streams of grid experiments, e.g. (theta_index, trial).
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(stream_path))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class LogNormalFit:
    """MLE log-normal fit plus histogram goodness-of-fit scores.

    r_squared bins the samples on their own scale; r_squared_log_bins bins
    log(samples) instead, as a sensitivity check on the binning convention
    (heavily skewed samples can score very differently under the two).
    """

    mu_tilde: float
    sigma_tilde: float
    r_squared: float
    n: int
    r_squared_log_bins: float = float("nan")
    degenerate: bool = False

    @property
    def median(self) -> float:
        return math.exp(self.mu_tilde)


def _histogram_r2(values, pdf) -> float:
    n_bins = int(np.ceil(np.log2(values.size))) + 1  # Sturges
    density, edges = np.histogram(values, bins=n_bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    fitted = pdf(centers)
    ss_res = float(np.sum((density - fitted) ** 2))
    ss_tot = float(np.sum((density - density.mean()) ** 2))
    return float("nan") if ss_tot == 0 else 1.0 - ss_res / ss_tot


def fit_lognormal(samples) -> LogNormalFit:
    """Fit a log-normal by MLE on the logs.

    mu_tilde and sigma_tilde are the mean and (population) standard deviation
    of log(samples). r_squared compares the normalized histogram (Sturges
    binning) against the fitted density at the bin centers. A zero-spread
    sample is flagged degenerate instead of reporting a meaningless r_squared.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("samples must be positive and finite")
    logs = np.log(x)
    mu = float(logs.mean())
    sig = float(logs.std())
    if sig < 1e-12:
        return LogNormalFit(mu, sig, float("nan"), x.size, degenerate=True)

    r2 = _histogram_r2(x, lambda c: lognorm.pdf(c, s=sig, scale=math.exp(mu)))
    r2_log = _histogram_r2(logs, lambda c: norm.pdf(c, loc=mu, scale=sig))
    return LogNormalFit(mu, sig, r2, x.size, r_squared_log_bins=r2_log)


def quadratic_scaling_fit(sigmas, medians) -> tuple[float, float]:
    """Least-squares fit of medians = c * sigma^2 through the origin.

    Returns (c, r_squared) with r_squared measured about the mean of the
    medians.
    """
    s = np.asarray(sigmas, dtype=float)
    m = np.asarray(medians, dtype=float)
    if s.size < 4 or s.size != m.size:
        raise ValueError("need at least 4 (sigma, median) pairs")
    if np.unique(s).size != s.size:
        raise ValueError("sigmas must be distinct")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(m))):
        raise ValueError("inputs must be finite")
    s2 = s * s
    c = float(np.sum(s2 * m) / np.sum(s2 * s2))
    pred = c * s2
    ss_res = float(np.sum((m - pred) ** 2))
    ss_tot = float(np.sum((m - m.mean()) ** 2))
    r2 = float("nan") if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return c, r2


@dataclass
class EmpiricalCdf:
    """Right-continuous step CDF of a sample."""

    values: np.ndarray
    levels: np.ndarray
    median: float


def empirical_cdf(samples) -> EmpiricalCdf:
    """Sorted (value, level) pairs with levels k/n; median by 0.5-level interpolation."""
    x = np.asarray(samples, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one sample")
    values = np.sort(x)
    levels = np.arange(1, x.size + 1, dtype=float) / x.size
    return EmpiricalCdf(values, levels, float(np.median(x)))


def binomial_stderr(successes: int, trials: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a binomial frequency."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    return math.sqrt(p * (1.0 - p) / trials)
