"""run_ensemble walks every point of a call in slices on one set of forked workers:
no result may depend on how many workers there are, or on whether there are any.

These tests set the affinity mask that run_ensemble reads, so they take the
parallel path even on one CPU; each compares with a run that took it. The
serial path on a real one-CPU mask is `test_real_affinity_mask`, which CI also
runs under ``taskset -c 0``.
"""

import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest

import weaksep.experiments as experiments
import weaksep.walk as walk
from oracles import derive_generator, run_walk
from weaksep.experiments import ExperimentSpec, run
from weaksep.qubit import state_from_angle
from weaksep.walk import Outcome, PointerModel, WalkBoundaries

TRIALS = 3 * walk._MIN_WORKER_LANES + 5  # three workers' worth, in uneven slices
S0, PM, WB = state_from_angle(40.0), PointerModel(3.0), WalkBoundaries(10.0, 80.0)
SEED, PATH = 20260811, (4,)


@pytest.fixture
def pools(monkeypatch):
    """The number of workers each run_ensemble call forks, in order; 0 when it walks serially."""
    started, forked, fork, ensemble = [], [], os.fork, walk.run_ensemble

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording(*args, **kwargs):
        before = len(forked)
        try:
            return ensemble(*args, **kwargs)
        finally:
            started.append(len(forked) - before)

    monkeypatch.setattr(os, "fork", counting)
    for module in (walk, experiments):
        monkeypatch.setattr(module, "run_ensemble", recording)
    return started


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def ensemble():
    return walk.run_ensemble([(S0, PM, PATH)], WB, TRIALS, SEED)


@pytest.fixture
def parallel(monkeypatch, pools):
    """The ensemble walked by two workers."""
    set_cpus(monkeypatch, 2)
    ens = ensemble()
    assert pools == [2]
    pools.clear()
    return ens


def assert_same(a, b):
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.labels, b.labels)


def test_worker_count_invariance(monkeypatch, pools, tmp_path):
    ensembles, csvs = [], []
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        ensembles.append(ensemble())
        out = tmp_path / str(cpus)
        params = {"sigma_grid": [0.5, 1.0, 1.5, 2.0], "trials": TRIALS, "dump_trajectories": True}
        run(ExperimentSpec("fig3", params, SEED, str(out)))
        csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    # one CPU forks no worker; fig3 forks one set for all of its sigmas
    assert pools == [0, 0, 2, 2, 3, 3]
    for ens in ensembles[1:]:
        assert_same(ens, ensembles[0])
    assert len(csvs[0]) == 5 and csvs[1] == csvs[0] and csvs[2] == csvs[0]
    # lanes at the ends of the three workers' slices, against the scalar walk
    ens = ensembles[2]
    for i in (0, TRIALS // 3 - 1, TRIALS // 3, 2 * TRIALS // 3, TRIALS - 1):
        solo = run_walk(S0, PM, WB, None, derive_generator(SEED, *PATH, i))
        assert (ens.steps[0, i], ens.labels[0, i]) == (solo.steps, int(solo.label)), f"lane {i}"


def test_points_walk_longest_first_in_slices(monkeypatch, pools):
    # sigma 3 is the longest walk and goes out first, then sigma 2, then sigma 1;
    # the 5-degree start is on a boundary and takes no step; every walking point
    # has more than _MAX_SLICE_LANES lanes, so each takes two slices or more
    trials = walk._MAX_SLICE_LANES + 5
    points = [(S0, PointerModel(1.0), (0,)), (state_from_angle(5.0), PM, (1,)),
              (S0, PointerModel(3.0), (2,)), (S0, PointerModel(2.0), (3,))]
    ensembles = []
    for cpus in (1, 2, 3, 5):
        set_cpus(monkeypatch, cpus)
        ensembles.append(walk.run_ensemble(points, WB, trials, SEED))
    assert pools == [0, 2, 3, 5]
    for ens in ensembles[1:]:
        assert_same(ens, ensembles[0])
    ens = ensembles[0]
    assert ens.steps.shape == ens.labels.shape == (4, trials)
    assert not ens.steps[1].any() and (ens.labels[1] == Outcome.ZERO).all()
    edges = {trials * k // 4 + d for k in range(1, 4) for d in (-1, 0)} | {0, trials - 1}
    for p in (0, 2, 3):
        s0, pm, path = points[p]
        for i in sorted(edges):
            solo = run_walk(s0, pm, WB, None, derive_generator(SEED, *path, i))
            assert (ens.steps[p, i], ens.labels[p, i]) == (solo.steps, int(solo.label)), \
                f"point {p}, lane {i}"


def test_real_affinity_mask(parallel):
    assert_same(ensemble(), parallel)


def test_one_cpu_walks_serially(monkeypatch, pools, parallel):
    set_cpus(monkeypatch, 1)
    assert_same(ensemble(), parallel)
    assert pools == [0]


@pytest.mark.filterwarnings("error::DeprecationWarning")  # Python 3.12 warns on fork with threads
def test_another_thread_walks_serially(pools, parallel):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        ens = ensemble()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_same(ens, parallel)
    assert pools == [0]


def _send_ensemble(conn):
    try:
        ens = ensemble()
        conn.send((ens.steps, ens.labels))
    except Exception as exc:  # the parent reports it
        conn.send(repr(exc))
    finally:
        conn.close()


def test_daemonic_process_walks_serially(parallel):
    # os.fork has no rule against a daemonic process's children, so it forks workers
    # of its own; the mask set above says 2 CPUs
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_ensemble, args=(send,), daemon=True)
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the daemonic process sent nothing"
        got = receive.recv()
    finally:
        child.join(timeout=10)
        child.kill()
    assert not child.is_alive()
    assert not isinstance(got, str), got
    assert np.array_equal(got[0], parallel.steps)
    assert np.array_equal(got[1], parallel.labels)


def test_serial_memory_is_one_slice_and_the_outputs(monkeypatch):
    # Unsliced, this walk peaks at about 52 MB of numpy memory (0.25 KB per lane at
    # 8 steps); in slices of _MAX_SLICE_LANES it peaks at about 6.3 MB: one slice,
    # and the 9 bytes per trial of steps and labels that each slice fills.
    set_cpus(monkeypatch, 1)
    trials = 200_000
    tracemalloc.start()
    try:
        ens = walk.run_ensemble([(state_from_angle(45.0), PointerModel(20.0), ())], WB, trials,
                                5, max_steps=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.steps.size == trials
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_serial_memory_grows_by_the_steps_and_labels(monkeypatch):
    # per trial, the walk keeps 8 bytes of steps and 1 of labels; keeping each
    # lane's final log-odds as well costs 16 bytes or more
    set_cpus(monkeypatch, 1)

    def peak(trials):
        tracemalloc.start()
        try:
            walk.run_ensemble([(state_from_angle(45.0), PointerModel(20.0), ())], WB, trials,
                              6, max_steps=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = (k * walk._MAX_SLICE_LANES for k in (2, 10))
    grown = (peak(large) - peak(small)) / (large - small)
    assert grown < 12, f"{grown:.1f} bytes per trial"
