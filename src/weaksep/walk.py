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

`run_ensemble` walks every grid point of a run in one call, in equal slices of
at most `_MAX_SLICE_LANES` lanes (which bounds the kernel's memory), longest
first, on one forked worker per CPU of the affinity mask with at least
`_MIN_WORKER_LANES` lanes each. The workers are those of `_fork_map`, which
also runs the reading walks of `discriminate` and the CSV parts of
`experiments`: job indices go out on one pipe, and each worker writes its
results on a pipe of its own for the parent to put in place, so no result
depends on the worker count; a worker that dies raises ChildProcessError. With
one worker or beside other threads the jobs run in turn in the process itself.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import select
import signal
import threading
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
    """Independent walk trials: row p of `steps` and `labels` holds point p's."""

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


_MIN_WORKER_LANES = 1024  # a worker's fewest lanes; forking and reaping a worker costs about 3 ms
_MAX_SLICE_LANES = 1 << 14  # a slice's most lanes, about 13 MB of kernel state
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _worker_count(work: int, floor: int) -> int:
    """The workers, 1 to the CPUs of the affinity mask, that `work` pays for at `floor` each."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, work // floor))


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


def _serve(work, job_r, result_w, others):
    """A worker, which never returns: for each job k indexed on job_r, write k, the
    length of work(k)'s bytes and the bytes on result_w."""
    try:
        # SIGTERM ends a worker; Ctrl-C is for the parent to handle
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        for fd in others:
            os.close(fd)
        with open(result_w, "wb") as out:
            while head := os.read(job_r, 4):  # a whole index: each went in by one write
                body = work(int.from_bytes(head, "little"))
                out.write(head + len(body).to_bytes(8, "little"))
                out.write(body)
                out.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _read(fd, n, pids):
    """n bytes from the result pipe fd of worker pids[fd], which has died if it ends first."""
    data = b""
    while len(data) < n:
        if not (chunk := os.read(fd, n - len(data))):
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(fd), 0)[1])
            os.close(fd)
            raise ChildProcessError(f"a worker was killed by {signal.Signals(-code).name}"
                                    if code < 0 else f"a worker exited with status {code}")
        data += chunk
    return data


def _results(jobs, workers, job_w, pids):
    """(k, bytes) for each of the `jobs` jobs, as the workers of pids finish them."""
    sent = 0
    for done in range(jobs):
        # a job more per result back: no write blocks, and a free worker takes the next
        while sent < min(jobs, done + workers):
            os.write(job_w, sent.to_bytes(4, "little"))
            sent += 1
        fd = select.select(list(pids), [], [])[0][0]
        head = _read(fd, 12, pids)
        size = int.from_bytes(head[4:], "little")
        yield int.from_bytes(head[:4], "little"), _read(fd, size, pids)


@contextlib.contextmanager
def _fork_map(work, jobs: int, workers: int):
    """An iterator of (k, work(k)) for k in range(jobs), as the jobs finish, where work(k)
    is bytes: at most `workers` forked workers each take the next job once free, and one
    that dies raises ChildProcessError. Leaving the block kills and reaps them all. With
    fewer than two workers or jobs, or beside other threads, the jobs run here in turn."""
    workers = min(workers, jobs)
    if workers < 2 or threading.active_count() > 1:  # fork is unsafe with threads
        yield ((k, work(k)) for k in range(jobs))
        return
    # the workers fork with the stop signals blocked: a worker gets them once _serve
    # has set its handlers, and no signal cuts the reaping short
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    job_r, job_w = os.pipe()
    pids = {}  # a worker's result pipe -> its pid
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(work, job_r, result_w, (job_w, result_r, *pids))
            os.close(result_w)
            pids[result_r] = pid
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _results(jobs, workers, job_w, pids)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        for fd in (job_r, job_w, *pids):
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)  # it has no job left, or its job is not wanted
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def run_ensemble(
    points: list[tuple[QubitState, PointerModel, tuple[int, ...]]],
    wb: WalkBoundaries,
    trials: int,
    master_seed: int,
    max_steps: int | None = None,
) -> WalkEnsemble:
    """Run `trials` independent walks from each point (s0, pm, seed_path) of `points`.

    Row p of the result holds point p's walks; max_steps=None caps each point
    at its `default_max_steps`. Trial i of a point consumes only the stream of
    (master_seed, *seed_path, i), so its outcome depends on no other trial or
    point. Each point goes in the fewest equal slices that hold at most one
    worker's share of the expected steps; a dead worker raises ChildProcessError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    # the outputs first, so that a trial count too large to hold fails at once
    steps = np.zeros((len(points), trials), dtype=np.int64)
    labels = np.empty((len(points), trials), dtype=np.int8)
    walks = []  # (expected steps per lane, point, _walk_slice's arguments but the lanes)
    for p, (s0, pm, seed_path) in enumerate(points):
        cap = default_max_steps(pm) if max_steps is None else max_steps
        if (crossed := wb.start_outcome(s0)) is not None:
            labels[p] = crossed  # no step
        else:  # at fixed boundaries and start, the mean collapse time grows as sigma^2
            walks.append((min(cap, max(1.0, pm.sigma * pm.sigma)), p,
                          (state_log_odds(s0), pm, wb, cap, master_seed, seed_path)))
    workers = _worker_count(trials * len(walks), _MIN_WORKER_LANES)
    total = sum(w for w, _, _ in walks)
    jobs = []  # (expected steps per slice lane, point, arguments, first lane, lane after the last)
    for w, p, args in walks:  # the fewest slices of a slice's lanes and a worker's share of steps
        n = max(-(-trials // _MAX_SLICE_LANES), math.ceil(workers * w / total))
        jobs += [(w / n, p, args, trials * k // n, trials * (k + 1) // n) for k in range(n)]
    jobs.sort(key=lambda job: -job[0])  # longest first; stable, so in grid order at a tie

    def walk(k):
        *_, args, start, stop = jobs[k]
        return b"".join(a.tobytes() for a in _walk_slice(*args, start, stop))

    with _fork_map(walk, len(jobs), workers) as results:
        for k, body in results:  # each slice freed once copied
            _, p, _, start, stop = jobs[k]
            steps[p, start:stop] = np.frombuffer(body, np.int64, stop - start)
            labels[p, start:stop] = np.frombuffer(body, np.int8, offset=8 * (stop - start))
    return WalkEnsemble(steps, labels)
