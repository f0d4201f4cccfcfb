"""Reproducible randomness and the statistical estimators used by the experiments.

Randomness contract
-------------------
All simulation randomness is numpy's PCG64. Independent per-trial streams
are derived from a master seed with numpy's SeedSequence hash mixing,
``SeedSequence(master_seed, spawn_key=(*stream_path, stream_index))``, so a
trial's stream is a pure function of (master_seed, stream_path,
stream_index) and results do not depend on execution order.

Every walk draws from the one stream form, `LaneStreams`: four uint64 words
per lane (PCG64's 128-bit state and increment), no Generator. numpy's
SeedSequence hashes the seed and path all lanes share; the index words and
PCG64 (O'Neill 2014) are written over uint64 arrays. Lane i of
``LaneStreams(seed, path, indices)`` yields the doubles of a Generator on
``PCG64(SeedSequence(seed, spawn_key=(*path, indices[i])))``, bit for bit.
A draw steps all the lanes it asks for at once and writes one row per uniform.

Gaussian variates are produced by the inverse-CDF transform of the uniform
stream (one uniform double per variate, mapped through ndtri), never by
polar or rejection methods, so every reading sequence is a replayable pure
function of the uniform stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRNG_ALGORITHM = "numpy-pcg64/seedseq-spawn/ndtri-inverse-cdf"

# rng.random() lies in [0, 1); clip away an exact 0.0 so ndtri stays finite.
_MIN_UNIFORM = 1e-300

# fewest samples `fit_lognormal` fits
MIN_FIT_SAMPLES = 30


# numpy's SeedSequence hash (NEP 19): 32-bit words, 4-word pool
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _HashMix:
    """SeedSequence's hashmix after `calls` calls; its multiplier advances on every
    call, whatever the value. Values are ints or uint64 arrays of 32-bit words."""

    def __init__(self, init: int, mult: int, calls: int = 0):
        self.const = init * pow(mult, calls, 2**32) & _M32
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _M32
        value = (value * self.const) & _M32
        return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


# PCG64 (O'Neill 2014): 128-bit LCG state s -> s * mult + inc, XSL-RR output.
# A 128-bit number is a (high, low) pair of uint64 arrays or np.uint64 scalars.
# Arrays wrap silently where numpy scalars warn, so every operation that can
# wrap has an array operand.
_U32 = np.uint64(_M32)
_SHIFT32 = np.uint64(32)


_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MULT = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_ZERO = np.uint64(0), np.uint64(0)


def _muladd128(a, b, c, out, scratch):
    """out = a * b + c mod 2**128, in place. a, b and c broadcast to out's shape,
    out may be a or c, and scratch holds three uint64 arrays of out's shape."""
    (a_hi, a_lo), (b_hi, b_lo), (c_hi, c_lo), (hi, lo) = a, b, c, out
    t, u, v = scratch
    a0, a1 = a_lo & _U32, a_lo >> _SHIFT32
    b0, b1 = b_lo & _U32, b_lo >> _SHIFT32
    # the high word of a_lo * b_lo from 32-bit halves; no partial sum passes 2**64
    np.multiply(a0, b0, out=t)
    t >>= _SHIFT32
    np.multiply(a1, b0, out=u)
    t += u
    np.multiply(a0, b1, out=u)
    np.bitwise_and(t, _U32, out=v)
    u += v
    t >>= _SHIFT32
    u >>= _SHIFT32
    t += u
    np.multiply(a1, b1, out=u)
    t += u
    # plus the cross terms that reach the high word
    np.multiply(a_lo, b_hi, out=u)
    t += u
    np.multiply(a_hi, b_lo, out=u)
    t += u
    np.multiply(a_lo, b_lo, out=u)
    np.add(u, c_lo, out=lo)
    np.less(lo, u, out=v)  # carry of the low word
    np.add(t, c_hi, out=hi)
    hi += v


# A lane's next n states come in runs of LCG steps, each run started by a
# jump s_j = A_j s_0 + C_j inc. Fewer lanes get more, shorter runs, so that each
# ufunc call still covers about _CALL_WIDTH states.
_CALL_WIDTH = 8192
_MAX_JUMP = 64  # a draw of more states per lane runs the LCG one step at a time


def _jump_table(n: int):
    """A_j = mult**j and C_j = the sum of mult**i for i < j, for j = 1..n, as
    uint64 words a_hi, a_lo, c_hi, c_lo, each a column of n rows."""
    a, c, rows = 1, 0, []
    for _ in range(n):
        a, c = (a * _PCG_MULT) % 2**128, (c * _PCG_MULT + 1) % 2**128
        rows.append((a >> 64, a & (2**64 - 1), c >> 64, c & (2**64 - 1)))
    return np.array(rows, dtype=np.uint64).T[:, :, None]


_JUMPS = _jump_table(_MAX_JUMP)


def _pcg_draw(state, inc, out):
    """Fill the float64 array `out`, one row per draw and one column per lane, with
    the doubles numpy's Generator.random makes of PCG64 states s_1..s_n of lanes
    whose state is s_0: the top 53 bits of each state's XSL-RR output. Returns s_n.

    Run r starts at s_(r steps + 1); all runs take each LCG step at once on
    (runs, lanes) arrays, and step i's doubles go to rows i, i + steps, ... of out.
    The output is worked out in scratch, so the states carry on to the next step.
    """
    n, width = out.shape
    runs = 1 if n > _MAX_JUMP else min(n, -(-_CALL_WIDTH // width))
    steps = -(-n // runs)
    runs = -(-n // steps)
    a_hi, a_lo, c_hi, c_lo = _JUMPS[:, 0:runs * steps:steps]
    hi, lo, *scratch = (np.empty((runs, width), dtype=np.uint64) for _ in range(5))
    _muladd128(inc, (c_hi, c_lo), _ZERO, (hi, lo), scratch)
    _muladd128(state, (a_hi, a_lo), (hi, lo), (hi, lo), scratch)
    for i in range(steps):
        rows = out[i::steps]  # the last run may stop a step or more early
        s_hi, s_lo, t, u, v = (x[:len(rows)] for x in (hi, lo, *scratch))
        if i:
            _muladd128((s_hi, s_lo), _MULT, inc, (s_hi, s_lo), (t, u, v))
        np.bitwise_xor(s_hi, s_lo, out=t)
        np.right_shift(s_hi, np.uint64(58), out=u)  # rotate right by the top 6 bits
        np.right_shift(t, u, out=v)
        np.subtract(np.uint64(64), u, out=u)
        u &= np.uint64(63)
        t <<= u
        v |= t
        v >>= np.uint64(11)
        np.multiply(v, 1.0 / 9007199254740992.0, out=rows)
    return hi[-1], lo[-1]


class LaneStreams:
    """The streams ``PCG64(SeedSequence(master_seed, spawn_key=(*stream_path,
    i)))`` for an array of indices i, as four uint64 words per lane: PCG64's
    128-bit state and increment. Lane j draws exactly what a Generator on its
    stream would, bit for bit and in the same order, without building one."""

    def __init__(self, master_seed: int, stream_path: tuple[int, ...], indices):
        index = np.asarray(indices, dtype=np.uint64)
        # numpy hashes what every lane shares, the seed (zero-padded to the pool)
        # and the path, and raises ValueError on a negative one
        shared = np.random.SeedSequence(master_seed, spawn_key=tuple(stream_path))
        pool = [int(w) for w in shared.pool]
        seed_words, *path_words = (max(1, -(-int(v).bit_length() // 32))  # 1 for 0
                                   for v in (master_seed, *stream_path))
        # numpy mixed the n shared words with _POOL_SIZE * n hashmix calls (fill, cross, absorb)
        n = max(_POOL_SIZE, seed_words) + sum(path_words)
        hashmix = _HashMix(_INIT_A, _MULT_A, calls=_POOL_SIZE * n)

        def absorb(pool, word):
            return [_mix(p, hashmix(word)) for p in pool]

        pool = absorb(pool, index & _U32)  # every index has a low word ...
        high = index >> _SHIFT32  # ... and those >= 2**32 a second one
        pool = [np.where(high > 0, q, p) for p, q in zip(pool, absorb(pool, high))]
        # generate_state(4, uint64): the pool hashed twice over, paired little-endian
        words = list(map(_HashMix(_INIT_B, _MULT_B), pool * 2))
        seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * k] | (words[2 * k + 1] << _SHIFT32)
                                            for k in range(4))
        # PCG64 seeding: inc = 2 seq + 1; s = inc + seed; s = s * mult + inc
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        lo = inc_lo + seed_lo
        hi = inc_hi + seed_hi + (lo < seed_lo)
        _muladd128((hi, lo), _MULT, (inc_hi, inc_lo), (hi, lo),
                   [np.empty_like(index) for _ in range(3)])
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo

    def random(self, lanes, n: int) -> np.ndarray:
        """The next n uniforms of each lane in `lanes` (an index array or a
        slice), one row per lane, as each lane's ``Generator.random(n)``."""
        state = self.hi[lanes], self.lo[lanes]
        out = np.empty((n, state[0].size))
        if out.size:  # 0 draws move no state
            self.hi[lanes], self.lo[lanes] = _pcg_draw(
                state, (self.inc_hi[lanes], self.inc_lo[lanes]), out)
        return out.T


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
    r_squared_log_bins: float = float("nan")


# The pdfs below perform scipy.stats' operations in scipy's order (squares as
# products, which is what numpy's x**2 computes), so fits score bit for bit alike.
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lognorm_pdf(c, s: float, scale: float):
    """Log-normal density at c > 0: scipy.stats.lognorm.pdf(c, s, scale=scale)."""
    y = c / scale
    log_y = np.log(y)
    return np.exp(-(log_y * log_y) / (2 * (s * s)) - np.log(s * y * _SQRT_2PI)) / scale


def _norm_pdf(c, loc: float, scale: float):
    """Normal density: scipy.stats.norm.pdf(c, loc, scale)."""
    y = (c - loc) / scale
    return np.exp(-(y * y) / 2.0) / _SQRT_2PI / scale


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
    sample has no histogram to score, so both scores are NaN.
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
        return LogNormalFit(mu, sig, float("nan"))

    r2 = _histogram_r2(x, lambda c: _lognorm_pdf(c, sig, math.exp(mu)))
    r2_log = _histogram_r2(logs, lambda c: _norm_pdf(c, mu, sig))
    return LogNormalFit(mu, sig, r2, r_squared_log_bins=r2_log)


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
