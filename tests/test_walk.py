import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from oracles import (bias_update, born_probabilities, derive_generator, posterior_weight,
                     reading_from_uniforms, run_walk, strong_measure)
from weaksep.qubit import QubitState, state_from_angle
from weaksep.stats import LaneStreams
from weaksep.walk import (
    Outcome,
    PointerModel,
    WalkBoundaries,
    _lockstep,
    default_max_steps,
    run_ensemble,
    state_log_odds,
)

interior_angles = st.floats(min_value=5.0, max_value=85.0)
spreads = st.floats(min_value=1.0, max_value=30.0)


def test_pointer_model_validation():
    with pytest.raises(ValueError):
        PointerModel(0.0)
    with pytest.raises(ValueError):
        PointerModel(2.0, g=-1.0)
    for sigma in (1.7e308, math.inf):  # sigma^2 overflows
        with pytest.raises(ValueError):
            PointerModel(sigma)


def test_boundaries_validation():
    with pytest.raises(ValueError):
        WalkBoundaries(80.0, 10.0)
    with pytest.raises(ValueError):
        WalkBoundaries(-1.0, 80.0)
    wb = WalkBoundaries(10.0, 80.0)
    assert wb.log_odds_zero == pytest.approx(-wb.log_odds_one, abs=1e-12)
    assert WalkBoundaries(0.0, 90.0).log_odds_zero == math.inf
    assert WalkBoundaries(5e-324, 80.0).log_odds_zero == math.inf  # tan underflows to 0
    assert WalkBoundaries(0.0, 90.0).log_odds_one == -math.inf


class TestSampleReading:
    def test_eigenstate_means(self):
        # n readings of a fixed state, without back-action, two uniforms each
        pm = PointerModel(2.0)
        n = 10**5
        for angle, seed, want, sd in ((0.0, 1, 1.0, pm.sigma), (90.0, 2, -1.0, pm.sigma),
                                      (45.0, 3, 0.0, math.sqrt(pm.sigma**2 + 1))):
            alpha = state_from_angle(angle).alpha
            u = derive_generator(seed).random(2 * n)
            readings = reading_from_uniforms(alpha * alpha, u[0::2], u[1::2], pm.g, pm.sigma)
            assert abs(readings.mean() - want) < 3 * sd / math.sqrt(n)


class TestBiasUpdate:
    def test_symmetric_reading_leaves_midpoint(self):
        s = state_from_angle(45.0)
        out = bias_update(s, 0.0, PointerModel(5.0))
        assert out.alpha == pytest.approx(s.alpha, abs=1e-15)
        assert out.beta == pytest.approx(s.beta, abs=1e-15)

    def test_eigenstate_absorbing(self):
        zero = state_from_angle(0.0)
        for x in (-100.0, -1.0, 0.5, 300.0):
            out = bias_update(zero, x, PointerModel(5.0))
            assert out.alpha == 1.0
            assert out.beta == 0.0

    def test_known_ratio_reading(self):
        # solving the ratio law for a ratio of 3 gives x0 = sigma^2 ln(3)/2
        sigma = 4.0
        x0 = sigma**2 * math.log(3.0) / 2.0
        out = bias_update(state_from_angle(45.0), x0, PointerModel(sigma))
        assert out.angle_deg == pytest.approx(30.0, abs=1e-12)

    def test_matches_unguarded_reweighting(self):
        # direct evaluation of the Gaussian branch weights, no max-subtraction
        sigma, x0 = 3.0, 1.7
        s = state_from_angle(37.0)
        w0 = s.alpha * math.exp(-((x0 - 1.0) ** 2) / (4 * sigma**2))
        w1 = s.beta * math.exp(-((x0 + 1.0) ** 2) / (4 * sigma**2))
        norm = math.hypot(w0, w1)
        out = bias_update(s, x0, PointerModel(sigma))
        assert out.alpha == pytest.approx(w0 / norm, abs=1e-15)
        assert out.beta == pytest.approx(w1 / norm, abs=1e-15)

    @given(interior_angles, spreads, st.floats(min_value=-50.0, max_value=50.0))
    def test_ratio_law(self, angle, sigma, x0):
        s = state_from_angle(angle)
        out = bias_update(s, x0, PointerModel(sigma))
        got = (out.alpha / out.beta) ** 2
        want = (s.alpha / s.beta) ** 2 * math.exp(2.0 * x0 / sigma**2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_huge_reading_collapses_cleanly(self):
        s = state_from_angle(45.0)
        out = bias_update(s, 1e6, PointerModel(1.0))
        assert out.alpha == 1.0 and out.beta == 0.0
        out = bias_update(s, -1e6, PointerModel(1.0))
        assert out.alpha == 0.0 and out.beta == 1.0

    @given(interior_angles, spreads, st.floats(min_value=-50.0, max_value=50.0))
    def test_mirror_symmetry_exact(self, angle, sigma, x0):
        # swapping the amplitudes and negating the reading mirrors the update
        s = state_from_angle(angle)
        mirrored = QubitState(s.beta, s.alpha)
        out = bias_update(s, x0, PointerModel(sigma))
        out_m = bias_update(mirrored, -x0, PointerModel(sigma))
        assert out_m.alpha == out.beta
        assert out_m.beta == out.alpha


class TestPosteriorWeight:
    def test_no_information(self):
        assert posterior_weight(0.0, state_from_angle(45.0), PointerModel(5.0)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        pm = PointerModel(5.0)
        s = state_from_angle(45.0)
        assert posterior_weight(1e6, s, pm) == 1.0
        assert posterior_weight(-1e6, s, pm) == 0.0
        assert posterior_weight(3.0, QubitState(1.0, 0.0), pm) == 1.0
        assert posterior_weight(3.0, QubitState(0.0, 1.0), pm) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        interior_angles,
        spreads,
        st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=50),
    )
    def test_equals_iterated_bias_updates(self, angle, sigma, readings):
        # the closed form must agree with brute-force iteration of the update
        pm = PointerModel(sigma)
        s0 = state_from_angle(angle)
        s = s0
        for x in readings:
            s = bias_update(s, x, pm)
        want = born_probabilities(s)[0]
        got = posterior_weight(math.fsum(readings), s0, pm)
        assert got == pytest.approx(want, abs=1e-12)

    def test_appendix_form_equals_bayes_form(self):
        # positive-exponent and negative-exponent branch weights cancel to the
        # same logistic curve in the reading sum
        rng = derive_generator(77)
        pm_list = [PointerModel(s) for s in (1.0, 5.0, 20.0)]
        s0 = state_from_angle(45.0)
        for _ in range(1000):
            S = float(rng.uniform(-30, 30))
            pm = pm_list[int(rng.integers(3))]
            direct = 1.0 / (1.0 + math.exp(-2.0 * S / pm.sigma**2))
            assert posterior_weight(S, s0, pm) == pytest.approx(direct, abs=1e-12)

    def test_vectorized_over_sums(self):
        pm = PointerModel(5.0)
        s0 = state_from_angle(30.0)
        sums = np.array([-5.0, 0.0, 5.0])
        out = posterior_weight(sums, s0, pm)
        assert out.shape == (3,)
        assert out[0] < out[1] < out[2]


class TestStep:
    # one weak measurement is a walk with no boundary and a budget of one step
    def test_deterministic(self):
        pm = PointerModel(5.0)
        s = state_from_angle(45.0)
        a = run_walk(s, pm, None, 1, derive_generator(8))
        b = run_walk(s, pm, None, 1, derive_generator(8))
        assert (a.final_state, a.readings[0]) == (b.final_state, b.readings[0])

    def test_eigenstate_stays_put(self):
        pm = PointerModel(2.0)
        zero = state_from_angle(0.0)
        s = run_walk(zero, pm, None, 1, derive_generator(9)).final_state
        assert s.alpha == 1.0 and s.beta == 0.0

    def test_born_weight_martingale_after_one_step(self):
        # ensemble mean of the posterior |0> weight stays at 1/2
        pm = PointerModel(5.0)
        s0 = state_from_angle(45.0)
        n = 10**5
        u = derive_generator(10).random(2 * n)
        readings = reading_from_uniforms(s0.alpha * s0.alpha, u[0::2], u[1::2], pm.g, pm.sigma)
        weights = posterior_weight(readings, s0, pm)
        se = weights.std() / math.sqrt(n)
        assert abs(weights.mean() - 0.5) < 3 * se


class TestStrongMeasure:
    def test_eigenstate(self):
        rng = derive_generator(11)
        assert all(strong_measure(state_from_angle(0.0), rng) == Outcome.ZERO
                   for _ in range(100))

    def test_frequencies(self):
        rng = derive_generator(12)
        n = 10**5
        s45 = state_from_angle(45.0)
        freq = sum(strong_measure(s45, rng) == Outcome.ZERO for _ in range(n)) / n
        assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(n)
        s1 = state_from_angle(1.0)
        want = 0.9996954135095479
        freq = sum(strong_measure(s1, rng) == Outcome.ZERO for _ in range(n)) / n
        se = math.sqrt(want * (1 - want) / n)
        assert abs(freq - want) < 3 * se


class TestRunWalk:
    def test_already_collapsed_start(self):
        pm = PointerModel(5.0)
        wb = WalkBoundaries(10.0, 80.0)
        out = run_walk(state_from_angle(5.0), pm, wb, 100, derive_generator(13))
        assert out.steps == 0
        assert out.label == Outcome.ZERO
        assert out.readings.size == 0
        out = run_walk(state_from_angle(85.0), pm, wb, 100, derive_generator(13))
        assert out.label == Outcome.ONE

    def test_deterministic_and_consistent(self):
        pm = PointerModel(5.0)
        wb = WalkBoundaries(10.0, 80.0)
        a = run_walk(state_from_angle(45.0), pm, wb, None, derive_generator(14))
        b = run_walk(state_from_angle(45.0), pm, wb, None, derive_generator(14))
        assert a.steps == b.steps == a.readings.size
        assert np.array_equal(a.readings, b.readings)
        assert a.label in (Outcome.ZERO, Outcome.ONE)
        angle = a.final_state.angle_deg
        if a.label == Outcome.ZERO:
            assert angle <= wb.a0_tilde
        else:
            assert angle >= wb.a1_tilde

    def test_max_steps_reported(self):
        pm = PointerModel(20.0)
        wb = WalkBoundaries(10.0, 80.0)
        out = run_walk(state_from_angle(45.0), pm, wb, 3, derive_generator(15))
        assert out.label == Outcome.MAXED_OUT
        assert out.steps == 3
        a0, a1 = wb.a0_tilde, wb.a1_tilde
        assert a0 < out.final_state.angle_deg < a1

    def test_bad_max_steps(self):
        with pytest.raises(ValueError):
            run_walk(state_from_angle(45.0), PointerModel(5.0),
                     WalkBoundaries(10.0, 80.0), 0, derive_generator(16))

    def test_near_strong_limit_collapses_in_one_step(self):
        # tiny spread: the first reading's sign decides, at Born frequency
        pm = PointerModel(0.01)
        wb = WalkBoundaries(10.0, 80.0)
        s0 = state_from_angle(30.0)
        zero = 0
        for i in range(2000):
            rng = derive_generator(17, i)
            out = run_walk(s0, pm, wb, None, rng)
            assert out.steps == 1
            assert (out.label == Outcome.ZERO) == (out.readings[0] > 0)
            zero += out.label == Outcome.ZERO
        want = born_probabilities(s0)[0]
        se = math.sqrt(want * (1 - want) / 2000)
        assert abs(zero / 2000 - want) < 3 * se

    def test_default_max_steps_scale(self):
        assert default_max_steps(PointerModel(5.0)) == 5000
        assert default_max_steps(PointerModel(0.01)) == 1


@pytest.mark.parametrize("wb", [WalkBoundaries(10.0, 80.0), None])
def test_lockstep_over_no_lanes_takes_no_step(wb):
    streams = LaneStreams(1, (), np.arange(0))
    # next, not list: a walk that did step would yield 10**9 empty steps
    assert next(_lockstep(np.empty(0), PointerModel(3.0), wb, 10**9, streams), None) is None


def test_lockstep_log_odds_are_the_oracle_steps():
    # 70 steps without a boundary, three blocks of uniforms: each lane's final log-odds
    # is the oracle's step iterated on that lane's uniforms, bit for bit. Neither 2g nor
    # sigma^2 is a power of 2, and L stays near 0, so a last-bit change in a step is
    # neither exact nor absorbed into a large L.
    pm, s0, steps = PointerModel(20.0, g=0.7), state_from_angle(40.0), 70
    L = np.full(8, state_log_odds(s0))
    for _ in _lockstep(L, pm, None, steps, LaneStreams(17, (2,), np.arange(8))):
        pass
    for i in range(8):
        u = derive_generator(17, 2, i).random(2 * steps)
        want = state_log_odds(s0)
        for t in range(steps):
            x = reading_from_uniforms(expit(want), u[2 * t], u[2 * t + 1], pm.g, pm.sigma)
            want = want + (2.0 * pm.g * x) / (pm.sigma * pm.sigma)
        assert L[i] == want


def test_lockstep_leaves_every_lane_its_last_log_odds():
    # lanes cross in the middle of the first and of the second block of uniforms (steps
    # 1-32 and 33-50), and the rest stop at the cap: L ends as the sum of the yielded
    # readings' log-odds steps from L0, bit for bit, on crossing lanes as on the rest
    pm, wb, cap = PointerModel(3.0, g=0.7), WalkBoundaries(10.0, 80.0), 50
    L = np.full(400, state_log_odds(state_from_angle(40.0)))
    acc = L.copy()
    steps = np.full(L.size, cap)
    streams = LaneStreams(23, (4,), np.arange(L.size))
    for t, lanes, x, crossed in _lockstep(L, pm, wb, cap, streams):
        acc[lanes] = acc[lanes] + (2.0 * pm.g * x) / (pm.sigma * pm.sigma)
        steps[crossed] = t
    assert np.array_equal(L, acc)
    assert np.any(steps < 32) and np.any((32 < steps) & (steps < cap))
    assert np.any(steps == cap)


class TestRunEnsemble:
    def test_single_trial_equals_run_walk(self):
        pm = PointerModel(5.0)
        wb = WalkBoundaries(10.0, 80.0)
        s0 = state_from_angle(45.0)
        ens = run_ensemble([(s0, pm, ())], wb, 1, master_seed=99)
        solo = run_walk(s0, pm, wb, None, derive_generator(99, 0))
        assert ens.steps[0, 0] == solo.steps
        assert ens.labels[0, 0] == int(solo.label)

    def test_every_trial_matches_standalone_walk(self):
        pm = PointerModel(4.0)
        wb = WalkBoundaries(15.0, 75.0)
        s0 = state_from_angle(40.0)
        trials = 64
        ens = run_ensemble([(s0, pm, ())], wb, trials, master_seed=123)
        for i in range(trials):
            solo = run_walk(s0, pm, wb, None, derive_generator(123, i))
            assert ens.steps[0, i] == solo.steps, f"trial {i}"
            assert ens.labels[0, i] == int(solo.label), f"trial {i}"
            assert solo.readings.size == solo.steps
            if solo.label == Outcome.ZERO:
                assert solo.final_state.angle_deg <= wb.a0_tilde
            else:
                assert solo.final_state.angle_deg >= wb.a1_tilde

    def test_reproducible(self):
        pm = PointerModel(5.0)
        wb = WalkBoundaries(10.0, 80.0)
        s0 = state_from_angle(45.0)
        a = run_ensemble([(s0, pm, ())], wb, 500, 7)
        b = run_ensemble([(s0, pm, ())], wb, 500, 7)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.labels, b.labels)

    def test_collapsed_start_short_circuits(self):
        ens = run_ensemble([(state_from_angle(5.0), PointerModel(5.0), ())],
                           WalkBoundaries(10.0, 80.0), 10, 1)
        assert ens.steps.shape == (1, 10)
        assert np.all(ens.steps == 0)
        assert np.all(ens.labels == Outcome.ZERO)

    @pytest.mark.parametrize("trials, max_steps", [(0, None), (-3, None), (10, 0), (10, -1)])
    def test_bad_trials_or_max_steps(self, trials, max_steps):
        with pytest.raises(ValueError):
            run_ensemble([(state_from_angle(45.0), PointerModel(5.0), ())],
                         WalkBoundaries(10.0, 80.0), trials, 1, max_steps=max_steps)

    def test_born_rule_collapse_fractions(self):
        # near-axis boundaries: P(collapse to ZERO) approaches the Born weight
        pm = PointerModel(5.0)
        wb = WalkBoundaries(0.1, 89.9)
        ens = run_ensemble([(state_from_angle(20.0), pm, ())], wb, 20000, 31)
        assert ens.fraction(Outcome.MAXED_OUT) == 0.0
        want = born_probabilities(state_from_angle(20.0))[0]
        assert abs(ens.fraction(Outcome.ZERO) - want) < 0.02

    def test_nonunit_coupling_smoke(self):
        # g is configurable but only exercised at smoke level
        pm = PointerModel(5.0, g=2.0)
        s0 = state_from_angle(45.0)
        u = derive_generator(62).random(2 * 2000)
        readings = reading_from_uniforms(s0.alpha * s0.alpha, u[0::2], u[1::2], pm.g, pm.sigma)
        s = s0
        for x in readings[:20]:
            s = bias_update(s, float(x), pm)
        want = born_probabilities(s)[0]
        got = posterior_weight(math.fsum(readings[:20]), s0, pm)
        assert got == pytest.approx(want, abs=1e-12)
        out = run_walk(s0, pm, WalkBoundaries(10.0, 80.0), None, derive_generator(63))
        assert out.label in (Outcome.ZERO, Outcome.ONE)

    def test_median_steps_nondecreasing_in_sigma(self):
        wb = WalkBoundaries(10.0, 80.0)
        s0 = state_from_angle(45.0)
        points = [(s0, PointerModel(sigma), (k,))
                  for k, sigma in enumerate((5.0, 10.0, 15.0, 20.0, 25.0))]
        medians = np.median(run_ensemble(points, wb, 10000, 61).steps, axis=1)
        assert all(b >= a for a, b in zip(medians, medians[1:]))
