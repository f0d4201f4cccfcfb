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
trial's stream: one for the branch choice (u < alpha^2 picks the +g branch)
and one mapped through the inverse normal CDF for the needle noise.

Engine
------
The step is written once, in the private lockstep kernel `_lockstep`, and
every walk runs on it: `run_ensemble`, the sign tests of `discriminate` and
the trajectory dump of `experiments`; it keeps one index of walking lanes.
Lane i walks on lane i of a `stats.LaneStreams`, the stream
``SeedSequence(master_seed, spawn_key=(*seed_path, i))`` as uint64 words, so
a trial is a pure function of (master_seed, seed_path, index). The tests hold
it bit for bit to a scalar walk that takes its own steps on that stream.

`run_ensemble` walks its lanes in equal contiguous slices of at most
`_MAX_SLICE_LANES`, which bounds the kernel's memory, on one forked worker
per CPU of the affinity mask with at least `_MIN_WORKER_LANES` lanes each,
and joins them in lane order, so no result depends on the worker count. With
one worker, in a daemonic process or beside other threads it walks them in turn.
"""

from __future__ import annotations

import enum
import math
import os
import signal
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

from .qubit import QubitState
from .stats import _MAX_JUMP, _MIN_UNIFORM, LaneStreams


@dataclass(frozen=True)
class PointerModel:
    """Gaussian needle: spread sigma, coupling g, eigenvalue shifts +/-1."""

    sigma: float
    g: float = 1.0

    def __post_init__(self):
        # a finite sigma^2 keeps readings finite; the step 2 g x / sigma^2 needs a nonzero one
        sig2 = self.sigma * self.sigma
        if not (self.sigma > 0 and math.isfinite(sig2) and (self.g == 0 or sig2 > 0)):
            raise ValueError(f"sigma must be positive, with a finite square, nonzero where "
                             f"g > 0; got {self.sigma}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")


def _log_odds_of_angle(a_deg: float) -> float:
    """L = ln(alpha^2/beta^2) of the state at angle a; +inf at 0 and where tan a
    underflows to 0, -inf at 90 (tan stays finite below it)."""
    if a_deg >= 90.0:
        return -math.inf
    tan = math.tan(math.radians(a_deg)) if a_deg > 0.0 else 0.0
    return math.inf if tan == 0.0 else -2.0 * math.log(tan)


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

    def start_outcome(self, s0: QubitState) -> Outcome | None:
        """The outcome of a walk from s0 on or past a boundary, which takes no step; else None."""
        angle = s0.angle_deg
        return (Outcome.ZERO if angle <= self.a0_tilde
                else Outcome.ONE if angle >= self.a1_tilde else None)


class Outcome(enum.IntEnum):
    ZERO = 0
    ONE = 1
    MAXED_OUT = 2


def default_max_steps(pm: PointerModel) -> int:
    """Safety cap of 200 sigma^2 steps, far above observed collapse times."""
    return max(1, math.ceil(200.0 * pm.sigma * pm.sigma))


def state_log_odds(s: QubitState) -> float:
    """L = ln(alpha^2/beta^2) of a state; +inf at |0>, -inf at |1>."""
    if s.alpha == 0.0:
        return -math.inf
    if s.beta == 0.0:
        return math.inf
    return 2.0 * (math.log(abs(s.alpha)) - math.log(abs(s.beta)))


def _back_action(alpha: float, beta: float, x0: float, g: float,
                 sigma: float) -> tuple[float, float]:
    """The amplitudes (alpha, beta) after reading x0 on a needle of coupling g and
    spread sigma, reweighted by the Gaussian branch weights, as floats.

    The two exponents are taken relative to their maximum before
    exponentiating, so one weight is always exactly 1 and the suppressed
    branch underflows cleanly to 0 instead of producing (0, 0).
    """
    four_s2 = 4.0 * sigma * sigma
    e0 = -((x0 - g) ** 2) / four_s2
    e1 = -((x0 + g) ** 2) / four_s2
    m = e1 if e1 > e0 else e0  # max(e0, e1), without the call
    w0 = alpha * math.exp(e0 - m)
    w1 = beta * math.exp(e1 - m)
    norm = math.hypot(w0, w1)
    return w0 / norm, w1 / norm


@dataclass
class WalkEnsemble:
    """Order-insensitive aggregate of independent walk trials."""

    steps: np.ndarray
    labels: np.ndarray

    def fraction(self, label: Outcome) -> float:
        return float(np.mean(self.labels == label))


_BLOCK_STEPS = _MAX_JUMP // 2  # a block's 2 uniforms per step stay within the jump table


def _lockstep(L, pm: PointerModel, wb: WalkBoundaries | None, max_steps: int,
              streams: LaneStreams):
    """The vectorized walk: lane i of L takes readings on lane i of `streams`.

    A lane stops after the reading whose updated log-odds crosses a boundary
    of wb, or after max_steps readings; wb=None means no boundary, so every
    lane takes exactly max_steps readings. After each step t this yields
    (t, lanes, x, crossed): the lanes that took the step (an index array into
    L, or slice(None) for all of them), their readings, and the indices of the
    lanes that crossed a boundary on it. The walking lanes are `lanes`, with
    `rows` their columns in the block's rows of uniforms and `L_lanes` their
    log-odds; a crossing drops its lanes from all three. L is updated in place,
    a crossing lane's entry after its step is yielded and the rest at a block's
    end, so it is current whenever the walk returns. A walk of zero lanes takes
    no step.
    """
    sig2 = pm.sigma * pm.sigma
    if wb is not None:
        l_zero, l_one = wb.log_odds_zero, wb.log_odds_one
    crossed = np.empty(0, dtype=np.intp)
    lanes = slice(None) if wb is None else np.arange(L.size)  # slices when none can stop
    t = 0
    while L.size and t < max_steps:
        k = min(_BLOCK_STEPS, max_steps - t)
        draws = streams.random(lanes, 2 * k).T
        rows = slice(None) if wb is None else np.arange(lanes.size)
        L_lanes = L[lanes]
        for i in range(k):
            t += 1
            shift = np.where(draws[2 * i][rows] < expit(L_lanes), pm.g, -pm.g)
            x = shift + pm.sigma * ndtri(np.maximum(draws[2 * i + 1][rows], _MIN_UNIFORM))
            L_lanes = L_lanes + (2.0 * pm.g * x) / sig2
            if wb is not None:
                done = (L_lanes >= l_zero) | (L_lanes <= l_one)
                crossed = lanes[done]
            yield t, lanes, x, crossed
            if crossed.size:
                L[crossed] = L_lanes[done]
                rows, lanes, L_lanes = rows[~done], lanes[~done], L_lanes[~done]
                if not lanes.size:
                    return
        L[lanes] = L_lanes


_MIN_WORKER_LANES = 1024  # a worker's fewest lanes; a pool takes about 4 ms to start and end
_MAX_SLICE_LANES = 1 << 14  # a slice's most lanes, about 13 MB of kernel state
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _walk_slice(L0, pm, wb, max_steps, master_seed, seed_path, start, stop):
    """The int64 steps and int8 labels of lanes start..stop-1 of an ensemble from L0."""
    L = np.full(stop - start, L0)
    streams = LaneStreams(master_seed, seed_path, np.arange(start, stop))
    steps = np.full(stop - start, max_steps, dtype=np.int64)
    for t, _, _, crossed in _lockstep(L, pm, wb, max_steps, streams):
        steps[crossed] = t
    # every lane took at least one step, so its final L tells how it ended
    labels = np.select([L >= wb.log_odds_zero, L <= wb.log_odds_one],
                       [int(Outcome.ZERO), int(Outcome.ONE)], int(Outcome.MAXED_OUT))
    return steps, labels.astype(np.int8)


def _start_pool_worker():
    # pool.terminate() ends a worker with SIGTERM; Ctrl-C is for the parent to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


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

    Trial i consumes only the stream derived from (master_seed, *seed_path, i),
    so its outcome does not depend on the other trials; trials are advanced
    in lockstep, and in slices on worker processes, purely for speed. seed_path
    namespaces ensembles that share one master seed (e.g. grid points of a curve).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_steps is None:
        max_steps = default_max_steps(pm)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    crossed = wb.start_outcome(s0)
    if crossed is not None:
        return WalkEnsemble(np.zeros(trials, dtype=np.int64),
                            np.full(trials, int(crossed), dtype=np.int8))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, trials // _MIN_WORKER_LANES))
    if workers > 1:
        import multiprocessing  # here, so that importing weaksep does not load it
        import threading
        if multiprocessing.current_process().daemon or threading.active_count() > 1:
            workers = 1  # a daemon may have no children, and fork is unsafe with threads
    # the outputs first, so that a trial count too large to hold fails at once
    steps, labels = np.empty(trials, dtype=np.int64), np.empty(trials, dtype=np.int8)
    n = workers * -(-trials // (workers * _MAX_SLICE_LANES))  # slices, whole rounds of them
    jobs = [(state_log_odds(s0), pm, wb, max_steps, master_seed, seed_path,
             trials * k // n, trials * (k + 1) // n) for k in range(n)]
    if workers == 1:
        results = (_walk_slice(*job) for job in jobs)  # each slice freed once copied
    else:
        # the pool starts and ends with the stop signals blocked: a worker gets them
        # once _start_pool_worker has set its handlers, and no signal cuts terminate() short
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            with multiprocessing.get_context("fork").Pool(workers, _start_pool_worker) as pool:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                results = pool.starmap(_walk_slice, jobs, chunksize=1)
                signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    for (*_, start, stop), part in zip(jobs, results):
        steps[start:stop], labels[start:stop] = part
    return WalkEnsemble(steps, labels)
