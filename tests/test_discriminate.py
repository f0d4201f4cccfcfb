import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import norm

from oracles import (candidate_of, compose_error, derive_generator, error_decomposition,
                     hypothesis_trial, iterative_trial, run_walk)
from weaksep import discriminate
from weaksep.discriminate import (
    Candidate,
    average_cdf,
    hypothesis_success_curves,
)
from weaksep.experiments import ExperimentSpec, run
from weaksep.qubit import (
    QubitState,
    helstrom_bound,
    make_discrimination_pair,
    state_from_angle,
)
from weaksep.stats import LaneStreams
from weaksep.walk import PointerModel, WalkBoundaries, run_ensemble


@pytest.fixture
def one_cpu(monkeypatch):
    """A one-CPU affinity mask, so that the walks run in this process, where tracemalloc
    and a patched LaneStreams can see them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_candidate_of():
    psi1, psi2 = make_discrimination_pair(50.0)
    assert candidate_of(psi1) == Candidate.PSI1
    assert candidate_of(psi2) == Candidate.PSI2
    with pytest.raises(ValueError):
        candidate_of(state_from_angle(45.0))


class TestIterativeTrial:
    def test_orthogonal_pair_always_succeeds(self):
        # theta=90 starts on the boundaries themselves: zero walk steps and a
        # deterministic strong outcome
        psi1, psi2 = make_discrimination_pair(90.0)
        pm = PointerModel(5.0)
        wb = WalkBoundaries(0.1, 89.9)
        wins = 0
        trials = 500
        for i in range(trials):
            rng = derive_generator(100, i)
            res = iterative_trial(psi1, wb, pm, None, rng)
            assert res.steps == 0 and not res.maxed_out
            wins += res.guess == res.truth == Candidate.PSI1
        assert wins / trials >= 0.99

    def test_indistinguishable_pair_is_a_coin_flip(self):
        psi1, _ = make_discrimination_pair(0.5)
        pm = PointerModel(5.0)
        wb = WalkBoundaries(1.0, 89.0)
        trials = 2000
        wins = sum(
            iterative_trial(psi1, wb, pm, None, derive_generator(101, i)).guess
            == Candidate.PSI1
            for i in range(trials)
        )
        se = 0.5 / math.sqrt(trials)
        assert abs(wins / trials - 0.5) < 3 * se

    def test_maxed_out_flagged_but_decided(self):
        psi1, _ = make_discrimination_pair(50.0)
        res = iterative_trial(psi1, WalkBoundaries(1.0, 89.0), PointerModel(20.0),
                              2, derive_generator(102))
        assert res.maxed_out
        assert res.guess in (Candidate.PSI1, Candidate.PSI2)


class TestErrorDecomposition:
    def test_axis_boundaries_have_exact_strong_factors(self):
        err, success = compose_error(0.3, 0.7, WalkBoundaries(0.0, 90.0),
                                     Candidate.PSI1)
        assert err == 0.3
        assert success == 0.7

    def test_near_axis_strong_factor_value(self):
        wb = WalkBoundaries(1.0, 89.0)
        err, _ = compose_error(0.0, 1.0, wb, Candidate.PSI1)
        assert err == pytest.approx(0.00030458649045213797, abs=1e-15)

    def test_error_plus_success_is_one(self):
        psi1, _ = make_discrimination_pair(50.0)
        record = error_decomposition(psi1, WalkBoundaries(1.0, 89.0),
                                     PointerModel(5.0), 400, master_seed=103)
        assert record.error + record.success == pytest.approx(1.0, abs=1e-12)
        assert record.weak_zero + record.weak_one == pytest.approx(1.0, abs=1e-12)
        assert record.maxed_fraction == 0.0
        assert record.truth == Candidate.PSI1

    def test_mirrored_truth_swaps_error_branches(self):
        _, psi2 = make_discrimination_pair(50.0)
        record = error_decomposition(psi2, WalkBoundaries(1.0, 89.0),
                                     PointerModel(5.0), 400, master_seed=104)
        assert record.truth == Candidate.PSI2
        # psi2 walks mostly to ZERO, and the ZERO branch is the correct one
        assert record.weak_zero > 0.5
        assert record.error < 0.5

    def test_composition_matches_manual_formula(self):
        psi1, _ = make_discrimination_pair(40.0)
        wb = WalkBoundaries(5.0, 85.0)
        record = error_decomposition(psi1, wb, PointerModel(5.0), 300,
                                     master_seed=105)
        f0 = math.cos(math.radians(5.0)) ** 2
        f1 = math.cos(math.radians(85.0)) ** 2
        manual = record.weak_zero * f0 + record.weak_one * f1
        assert record.error == pytest.approx(manual, abs=1e-15)


class TestHypothesisTrial:
    def test_single_shot_orthogonal_success_rate(self):
        # truth |1>: one reading ~ N(-1, sigma^2); success iff it is negative
        psi1, _ = make_discrimination_pair(90.0)
        pm = PointerModel(3.0)
        trials = 10000
        wins = 0
        for i in range(trials):
            res = hypothesis_trial(psi1, 1, pm, derive_generator(106, i))
            assert res.steps == 1
            assert res.statistic is not None
            wins += res.guess == Candidate.PSI1
        want = float(norm.cdf(1.0 / 3.0))
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(wins / trials - want) < 3 * se

    def test_tiny_theta_is_a_coin_flip(self):
        psi1, _ = make_discrimination_pair(0.5)
        pm = PointerModel(3.0)
        trials = 4000
        wins = sum(
            hypothesis_trial(psi1, 5, pm, derive_generator(107, i)).guess
            == Candidate.PSI1
            for i in range(trials)
        )
        assert abs(wins / trials - 0.5) < 3 * 0.5 / math.sqrt(trials)

    def test_more_readings_help(self):
        psi1, _ = make_discrimination_pair(50.0)
        pm = PointerModel(3.0)
        trials = 5000
        wins = {m: 0 for m in (5, 20)}
        for m in wins:
            for i in range(trials):
                res = hypothesis_trial(psi1, m, pm, derive_generator(108, m, i))
                wins[m] += res.guess == Candidate.PSI1
        assert wins[20] > wins[5]

    def test_m_validation(self):
        psi1, _ = make_discrimination_pair(50.0)
        with pytest.raises(ValueError):
            hypothesis_trial(psi1, 0, PointerModel(3.0), derive_generator(110))
        with pytest.raises(ValueError, match="every m"):
            hypothesis_success_curves([50.0], [], PointerModel(3.0), 100, 1)

    def test_exact_tie_broken_by_coin(self):
        # u=0.5 maps to zero noise, so scripted branch picks give readings
        # +1 then -1: the average is exactly 0 and the next uniform decides
        class ScriptedRng:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        psi1, _ = make_discrimination_pair(50.0)
        pm = PointerModel(3.0)
        res = hypothesis_trial(psi1, 2, pm,
                               ScriptedRng([0.0, 0.5, 0.999, 0.5, 0.2]))
        assert res.statistic == 0.0
        assert res.guess == Candidate.PSI1
        res = hypothesis_trial(psi1, 2, pm,
                               ScriptedRng([0.0, 0.5, 0.999, 0.5, 0.8]))
        assert res.statistic == 0.0
        assert res.guess == Candidate.PSI2


class TestHypothesisCurves:
    def test_engine_matches_scalar_trials(self):
        # theta=90 starts psi2 on |0> (L=+inf); m=40 runs past one prefetch block
        grid = [50.0, 90.0]
        m_values = [5, 10, 40]
        pm = PointerModel(3.0)
        trials = 120
        curves = hypothesis_success_curves(grid, m_values, pm, trials, 111)
        for k, theta in enumerate(grid):
            psi1, psi2 = make_discrimination_pair(theta)
            for m in m_values:
                wins = 0
                for i in range(trials):
                    rng = derive_generator(111, k, i)
                    truth_state = psi1 if rng.random() < 0.5 else psi2
                    res = hypothesis_trial(truth_state, m, pm, rng)
                    wins += res.guess == res.truth
                assert curves[m].success[k] == pytest.approx(wins / trials, abs=0.0)

    def test_tied_means_take_the_next_uniforms_of_the_stream(self):
        # with g = 0 and sigma the least subnormal, readings round to small
        # multiples of it, so many means are exactly 0. A tie takes the next
        # uniform of its trial's stream: after the truth and all 2 max(m)
        # reading uniforms, one per tied m in increasing order.
        pm = PointerModel(5e-324, g=0.0)
        m_values, trials = [1, 2, 3], 200
        with np.errstate(invalid="ignore"):  # the log-odds step is 0/0 here
            curves = hypothesis_success_curves([50.0], m_values, pm, trials, 123)
            psi1, psi2 = make_discrimination_pair(50.0)
            wins, ties = dict.fromkeys(m_values, 0), 0
            for i in range(trials):
                rng = derive_generator(123, 0, i)
                truth_state = psi1 if rng.random() < 0.5 else psi2
                readings = run_walk(truth_state, pm, None, max(m_values), rng).readings
                for m in m_values:
                    total = 0.0
                    for x in readings[:m].tolist():
                        total += x
                    if total / m == 0.0:
                        ties += 1
                        guess_is_1 = rng.random() < 0.5
                    else:
                        guess_is_1 = total / m < 0.0
                    wins[m] += guess_is_1 == (truth_state is psi1)
        assert ties > trials
        for m in m_values:
            assert curves[m].success[0] == wins[m] / trials

    def test_single_m_curve_is_the_multi_m_slice(self):
        pm = PointerModel(3.0)
        grid = [30.0, 60.0]
        multi = hypothesis_success_curves(grid, [5, 10, 20], pm, 300, 112)
        single = hypothesis_success_curves(grid, [5], pm, 300, 112)[5]
        assert np.array_equal(single.success, multi[5].success)

    def test_orthogonal_pair_with_many_readings(self):
        curve = hypothesis_success_curves([90.0], [50], PointerModel(3.0), 3000, 113)[50]
        want = float(norm.cdf(math.sqrt(50.0) / 3.0))
        assert curve.success[0] < 1.0
        assert curve.success[0] == pytest.approx(want, abs=3 * curve.stderr[0] + 0.01)

    def test_curve_monotone_and_below_helstrom(self):
        grid = [20.0, 40.0, 60.0, 80.0]
        curve = hypothesis_success_curves(grid, [10], PointerModel(3.0), 2000, 114)[10]
        for k in range(len(grid) - 1):
            slack = 3 * math.hypot(curve.stderr[k], curve.stderr[k + 1])
            assert curve.success[k + 1] >= curve.success[k] - slack
        assert np.all(curve.success <= curve.helstrom + 3 * curve.stderr)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            hypothesis_success_curves([50.0], [5], PointerModel(3.0), 50, 115)

    # g = 0 and the least subnormal sigma make many tied means, so the slices'
    # tie coins are drawn too
    @pytest.mark.parametrize("pm", [PointerModel(3.0), PointerModel(5e-324, g=0.0)])
    @pytest.mark.usefixtures("one_cpu")
    def test_slices_walk_the_same_trials(self, monkeypatch, pm):
        # a trial's draws depend only on (seed, theta index, trial), so slicing changes no bit
        grid, m_values = [30.0, 50.0, 90.0], [1, 3, 7]
        with np.errstate(invalid="ignore"):  # the log-odds step is 0/0 when g = 0
            whole = hypothesis_success_curves(grid, m_values, pm, 1000, 125)
            lanes = []
            monkeypatch.setattr(discriminate, "_MAX_SLICE_LANES", 300)
            monkeypatch.setattr(discriminate, "LaneStreams", lambda seed, path, indices: (
                lanes.append(len(indices)) or LaneStreams(seed, path, indices)))
            sliced = hypothesis_success_curves(grid, m_values, pm, 1000, 125)
        assert lanes == [250, 250, 250, 250] * len(grid)  # the fewest equal slices
        for m in m_values:
            assert np.array_equal(sliced[m].success, whole[m].success)

    @pytest.mark.usefixtures("one_cpu")
    def test_memory_is_one_slice_and_the_wins(self):
        # Walked all at once, these curves peak at about 85 MB of numpy memory; in
        # slices of _MAX_SLICE_LANES they peak at about 8 MB: one slice's walk, and
        # the win counts.
        trials = 200_000
        tracemalloc.start()
        try:
            curves = hypothesis_success_curves([50.0], [5, 10, 20], PointerModel(3.0),
                                               trials, 126)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(0.5 < curve.success[0] < 1.0 for curve in curves.values())
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.usefixtures("one_cpu")
    def test_memory_does_not_grow_with_trials(self):
        # each slice adds its wins to counts per (m, theta); keeping a bool per trial
        # and m instead grows the peak by 8 bytes per trial here, 1.6 MB between the two
        def peak(trials):
            tracemalloc.start()
            try:
                hypothesis_success_curves([50.0], range(1, 9), PointerModel(3.0), trials, 127)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = (peak(k * discriminate._MAX_SLICE_LANES) for k in (4, 16))
        assert large - small < 1e6, f"{small / 1e6:.2f} MB, then {large / 1e6:.2f} MB"


class TestAverageCdf:
    def test_eigenstate_average_is_plain_gaussian(self):
        # |0> feels no back-action: the m-average is N(1, sigma^2/m)
        from scipy.stats import kstest

        cdf = average_cdf(QubitState(1.0, 0.0), 4, PointerModel(3.0), 2000, 116)
        result = kstest(cdf.values, lambda x: norm.cdf(x, loc=1.0, scale=1.5))
        assert result.pvalue > 0.01

    def test_cdf_shape(self):
        psi1, _ = make_discrimination_pair(50.0)
        cdf = average_cdf(psi1, 5, PointerModel(3.0), 1000, 117)
        assert cdf.values.size == 1000
        assert np.all(np.diff(cdf.levels) >= 0)
        assert cdf.levels[0] > 0 and cdf.levels[-1] == 1.0
        assert np.all(np.diff(cdf.values) >= 0)

    def test_values_are_the_scalar_statistics(self):
        # bit for bit: trial i's m-average on stream (seed, i), summed left to right
        psi1, _ = make_discrimination_pair(50.0)
        pm = PointerModel(3.0)
        cdf = average_cdf(psi1, 40, pm, 1000, 122)
        scalar = sorted(hypothesis_trial(psi1, 40, pm, derive_generator(122, i)).statistic
                        for i in range(1000))
        assert np.array_equal(cdf.values, scalar)

    def test_trials_validated(self):
        psi1, _ = make_discrimination_pair(50.0)
        with pytest.raises(ValueError):
            average_cdf(psi1, 5, PointerModel(3.0), 500, 118)

    def test_slices_walk_the_same_trials(self, monkeypatch):
        # a trial's readings depend only on (seed, index), so slicing changes no bit
        psi1, _ = make_discrimination_pair(50.0)
        whole = average_cdf(psi1, 7, PointerModel(3.0), 1000, 123)
        monkeypatch.setattr(discriminate, "_MAX_SLICE_LANES", 300)
        sliced = average_cdf(psi1, 7, PointerModel(3.0), 1000, 123)
        assert np.array_equal(sliced.values, whole.values)
        assert np.array_equal(sliced.levels, whole.levels)

    @pytest.mark.usefixtures("one_cpu")
    def test_memory_is_one_slice_and_the_averages(self):
        # Walked all at once, this CDF peaks at about 83 MB of numpy memory; in slices
        # of _MAX_SLICE_LANES it peaks at about 10 MB: one slice's walk, and the
        # averages, sorted values and levels of every trial.
        _, psi2 = make_discrimination_pair(50.0)
        trials = 200_000
        tracemalloc.start()
        try:
            cdf = average_cdf(psi2, 20, PointerModel(3.0), trials, 124)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cdf.values.size == trials
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_ensembles_build_no_generator(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("an ensemble built a numpy Generator")

    for name in ("Generator", "PCG64", "default_rng"):
        monkeypatch.setattr(np.random, name, refuse)
    # LaneStreams takes the seed hash its lanes share from one SeedSequence;
    # the count is per LaneStreams built, never per trial
    built = Counter()

    def counted(kind, build):
        def wrapper(*args, **kwargs):
            built[kind] += 1
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.random, "SeedSequence", counted("SeedSequence", np.random.SeedSequence))
    monkeypatch.setattr(LaneStreams, "__init__", counted("LaneStreams", LaneStreams.__init__))
    psi1, _ = make_discrimination_pair(50.0)
    pm = PointerModel(3.0)
    ensembles = [
        (lambda: run_ensemble([(psi1, pm, ())], WalkBoundaries(10.0, 80.0), 50, 1), 1),
        (lambda: hypothesis_success_curves([50.0], [5], pm, 100, 1), 1),
        (lambda: average_cdf(psi1, 5, pm, 1000, 1), 1),
        # the ensemble, then one chunk of the trajectory dump
        (lambda: run(ExperimentSpec("fig2", {"sigma": 3.0, "trials": 30,
                                             "dump_trajectories": True}, 1, str(tmp_path))), 2),
    ]
    for ensemble, streams in ensembles:
        built.clear()
        ensemble()
        assert built == {"SeedSequence": streams, "LaneStreams": streams}


class TestCollapseSuccessCurve:
    def test_tracks_helstrom_from_above_at_wide_boundaries(self, tmp_path):
        # ample boundary margin gives success clearly above the projective
        # optimum; mid-theta where the excess is resolvable
        params = {"theta_grid": [50.0], "boundaries": [10.0, 80.0], "sigma": 5.0,
                  "trials": 10000}
        run(ExperimentSpec("fig4", params, 119, str(tmp_path)))
        curve = np.genfromtxt(tmp_path / "fig4_success.csv", delimiter=",", names=True)
        assert curve["success"] - helstrom_bound(50.0) > 3 * curve["stderr"]

    def test_mirror_symmetry_statistical(self):
        # walking psi2 to ZERO succeeds as often as walking psi1 to ONE
        from weaksep.walk import Outcome, run_ensemble

        wb = WalkBoundaries(5.0, 85.0)
        pm = PointerModel(5.0)
        psi1, psi2 = make_discrimination_pair(40.0)
        n = 4000
        ens1 = run_ensemble([(psi1, pm, ())], wb, n, 120)
        ens2 = run_ensemble([(psi2, pm, ())], wb, n, 121)
        s1 = ens1.fraction(Outcome.ONE)
        s2 = ens2.fraction(Outcome.ZERO)
        se = math.hypot(math.sqrt(s1 * (1 - s1) / n), math.sqrt(s2 * (1 - s2) / n))
        assert abs(s1 - s2) < 3 * se
