import math

import pytest
from hypothesis import given, strategies as st

from weaksep.qubit import (
    QubitState,
    born_probabilities,
    helstrom_bound,
    make_discrimination_pair,
    overlap,
    state_from_angle,
)

angles = st.floats(min_value=0.0, max_value=90.0, allow_nan=False)


def test_basis_states_from_angle():
    assert state_from_angle(0.0).alpha == pytest.approx(1.0, abs=1e-12)
    assert state_from_angle(0.0).beta == pytest.approx(0.0, abs=1e-12)
    assert state_from_angle(90.0).alpha == pytest.approx(0.0, abs=1e-12)
    assert state_from_angle(90.0).beta == pytest.approx(1.0, abs=1e-12)
    s = state_from_angle(45.0)
    assert s.alpha == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert s.beta == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError):
        QubitState(1.0, 1.0)


@given(angles)
def test_angle_round_trip(a):
    assert state_from_angle(a).angle_deg == pytest.approx(a, abs=1e-12)


@given(angles)
def test_construction_normalized(a):
    s = state_from_angle(a)
    assert abs(s.alpha**2 + s.beta**2 - 1.0) < 1e-12


def test_overlap_trivials():
    s = state_from_angle(33.0)
    assert overlap(s, s) == pytest.approx(1.0, abs=1e-12)
    assert overlap(state_from_angle(0.0), state_from_angle(90.0)) == pytest.approx(
        0.0, abs=1e-12)


def test_pair_overlap_is_cos_theta():
    s1, s2 = make_discrimination_pair(50.0)
    assert s1.angle_deg == pytest.approx(70.0, abs=1e-12)
    assert s2.angle_deg == pytest.approx(20.0, abs=1e-12)
    assert overlap(s1, s2) == pytest.approx(0.6427876096865394, abs=1e-12)


def test_pair_orthogonal_and_degenerate_limits():
    s1, s2 = make_discrimination_pair(90.0)
    assert s1.angle_deg == pytest.approx(90.0, abs=1e-12)
    assert s2.angle_deg == pytest.approx(0.0, abs=1e-12)
    tiny1, tiny2 = make_discrimination_pair(1e-9)
    assert overlap(tiny1, tiny2) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=90.0))
def test_pair_symmetric_about_45(theta):
    s1, s2 = make_discrimination_pair(theta)
    assert s1.angle_deg - 45.0 == pytest.approx(45.0 - s2.angle_deg, abs=1e-12)


def test_pair_rejects_bad_theta():
    for theta in (0.0, -5.0, 90.5):
        with pytest.raises(ValueError):
            make_discrimination_pair(theta)


def test_helstrom_values():
    assert helstrom_bound(0.0) == pytest.approx(0.5, abs=1e-15)
    assert helstrom_bound(90.0) == pytest.approx(1.0, abs=1e-15)
    assert helstrom_bound(50.0) == pytest.approx(0.883022221559489, abs=1e-12)


def test_helstrom_matches_general_two_state_optimum():
    # equal-priors case of (1 + sqrt(1 - 4 l1 l2 |<s1|s2>|^2)) / 2
    for theta in range(1, 91):
        s1, s2 = make_discrimination_pair(float(theta))
        general = 0.5 * (1.0 + math.sqrt(1.0 - overlap(s1, s2) ** 2))
        assert helstrom_bound(float(theta)) == pytest.approx(general, abs=1e-12)


def test_helstrom_strictly_increasing():
    values = [helstrom_bound(t / 2.0) for t in range(1, 181)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_helstrom_rejects_out_of_range():
    with pytest.raises(ValueError):
        helstrom_bound(-1.0)
    with pytest.raises(ValueError):
        helstrom_bound(91.0)


def test_born_probabilities():
    assert born_probabilities(state_from_angle(0.0)) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert born_probabilities(state_from_angle(45.0)) == pytest.approx((0.5, 0.5), abs=1e-12)
    p0, p1 = born_probabilities(state_from_angle(1.0))
    assert p0 == pytest.approx(0.9996954135095479, abs=1e-12)
    assert p1 == pytest.approx(0.00030458649045213493, abs=1e-12)


@given(angles)
def test_born_probabilities_sum_to_one(a):
    p0, p1 = born_probabilities(state_from_angle(a))
    assert abs(p0 + p1 - 1.0) < 1e-12
