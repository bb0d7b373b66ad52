"""Tests for the two reference tasks: smoothed point-mass testing and
cardioid direction estimation."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest

from ldpput.applications import (
    CardioidSpec,
    cardioid_bayes_risk,
    cardioid_orbit_risk,
    cardioid_put_closed_form,
    ht_problem,
    ht_put_closed_form,
    ht_subset_risk,
    z_magnitude,
)
from ldpput.decision import bayes_optimal_risk
from ldpput.groups import FiniteAlphabet, cyclic_group, natural_action, symmetric_group
from ldpput.ldp_geometry import subset_orbits
from oracles import (
    InvarianceDeclaration,
    check_equalizer_reference,
    cardioid_consecutive_maximizer,
    cardioid_orbit_risk_numeric,
    cardioid_rule_risk,
    positions_to_mask,
    ss_mechanism,
    verify_invariance,
)

F = Fraction


# -- hypothesis testing task --------------------------------------------------


def test_ht_problem_point_mass_at_gamma_one():
    problem, prior = ht_problem(3, F(1))
    for x in range(3):
        for i in range(3):
            assert problem.model[x][i] == F(int(x == i))
    assert prior.values == (F(1, 3),) * 3


def test_ht_problem_columns_sum_to_one():
    problem, _ = ht_problem(4, F(1, 3))
    for i in range(4):
        assert sum(problem.model[x][i] for x in range(4)) == 1


def test_ht_problem_loss_is_zero_one():
    problem, _ = ht_problem(3, F(1, 2))
    for i in range(3):
        for a in range(3):
            assert problem.loss[i][a] == F(int(i != a))


def test_ht_problem_invariant_under_symmetric_group():
    problem, prior = ht_problem(3, F(1, 2))
    group = symmetric_group(FiniteAlphabet.of_size(3))
    decl = InvarianceDeclaration(
        group=group,
        parameter_action=natural_action(group),
        action_action=natural_action(group),
    )
    assert verify_invariance(problem, decl, prior)


@pytest.mark.parametrize(
    "m,gamma,t,expected",
    [
        (2, F(1), F(3), F(1, 4)),
        (3, F(1), F(2), F(1, 2)),
        (4, F(1, 2), F(2), 1 - F(1, 2) / 4 - F(1, 2) * 2 / 5),
    ],
)
def test_ht_put_closed_form_values(m, gamma, t, expected):
    assert ht_put_closed_form(m, gamma, t) == expected


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("gamma", [F(1, 4), F(1)])
def test_ht_put_no_privacy_gain_at_t1(m, gamma):
    # t = 1 forces blind guessing regardless of gamma
    assert ht_put_closed_form(m, gamma, F(1)) == 1 - F(1, m)


def test_ht_subset_risk_m3_frozen():
    assert ht_subset_risk(3, F(1), F(2), 1) == F(1, 2)
    assert ht_subset_risk(3, F(1), F(2), 2) == F(3, 5)


def test_ht_subset_risk_k1_equals_put():
    for m in (2, 3, 4):
        for t in (F(3, 2), F(2), F(5)):
            assert ht_subset_risk(m, F(1, 2), t, 1) == ht_put_closed_form(m, F(1, 2), t)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_ht_subset_risk_increasing_in_k(m):
    gamma, t = F(1, 2), F(2)
    risks = [ht_subset_risk(m, gamma, t, k) for k in range(1, m)]
    assert risks == sorted(risks)
    assert all(r1 < r2 for r1, r2 in zip(risks, risks[1:]))


def test_ht_subset_risk_matches_decision_engine():
    """The per-k formula agrees with exact Bayes risk at the SS channel."""
    m, gamma, t = 4, F(1, 2), F(3)
    problem, prior = ht_problem(m, gamma)
    for k in range(1, m):
        channel = ss_mechanism(FiniteAlphabet.of_size(m), k, t)
        direct, _ = bayes_optimal_risk(problem, prior, channel)
        assert direct == ht_subset_risk(m, gamma, t, k)


@pytest.mark.parametrize(
    "m,gamma,t",
    [(2, F(1), F(3)), (4, F(1, 2), F(2)), (3, F(1), F(1))],
)
def test_ht_minimax_equals_bayes(m, gamma, t):
    problem, prior = ht_problem(m, gamma)
    channel = ss_mechanism(problem.input_alphabet, 1, t)
    assert check_equalizer_reference(problem, prior, channel, 0)


# -- cardioid geometry --------------------------------------------------------


def test_z_magnitude_antipodal_cancellation():
    assert z_magnitude(0b0101, 4) == pytest.approx(0.0, abs=1e-15)


def test_z_magnitude_adjacent_pair_m4():
    assert z_magnitude(0b0011, 4) == pytest.approx(math.sqrt(2), abs=1e-12)
    # consecutive closed form sin(pi k / m) / sin(pi / m)
    assert z_magnitude(0b0011, 4) == pytest.approx(
        math.sin(math.pi / 2) / math.sin(math.pi / 4), abs=1e-12
    )


def test_z_magnitude_singleton():
    assert z_magnitude(0b001, 3) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
def test_z_magnitude_consecutive_formula(m):
    for k in range(1, m):
        mask = (1 << k) - 1
        assert z_magnitude(mask, m) == pytest.approx(
            math.sin(math.pi * k / m) / math.sin(math.pi / m), abs=1e-12
        )


@pytest.mark.parametrize("m", [4, 5, 6])
def test_z_magnitude_complement_symmetry(m):
    # the full alphabet sums to zero, so a subset and its complement agree
    full = (1 << m) - 1
    for mask in range(1, full):
        assert z_magnitude(mask, m) == pytest.approx(
            z_magnitude(full ^ mask, m), abs=1e-12
        )


@pytest.mark.parametrize("m,k", [(5, 2), (6, 3), (7, 3), (12, 5)])
def test_consecutive_maximizer(m, k):
    mask = cardioid_consecutive_maximizer(m, k)
    assert mask == (1 << k) - 1
    best = z_magnitude(mask, m)
    for positions in combinations(range(m), k):
        assert z_magnitude(positions_to_mask(positions), m) <= best + 1e-12


def test_consecutive_maximizer_m5_k2_value():
    mask = cardioid_consecutive_maximizer(5, 2)
    assert z_magnitude(mask, 5) == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-12)


def test_consecutive_maximizer_k_equals_m_minus_1():
    for m in (4, 5, 6):
        mask = cardioid_consecutive_maximizer(m, m - 1)
        assert z_magnitude(mask, m) == pytest.approx(1.0, abs=1e-12)


# -- cardioid risks -----------------------------------------------------------


def test_cardioid_orbit_risk_m4_frozen():
    spec = CardioidSpec.build(4, F(1), F(3))
    assert cardioid_orbit_risk(spec, 0b0011) == pytest.approx(
        1 - math.sqrt(2) / 8, abs=1e-15
    )


def test_cardioid_orbit_risk_blind_cases():
    spec = CardioidSpec.build(4, F(1), F(3))
    assert cardioid_orbit_risk(spec, 0b0101) == pytest.approx(1.0, abs=1e-15)
    flat = CardioidSpec.build(4, F(1), F(1))
    for mask in (0b0001, 0b0011, 0b0111):
        assert cardioid_orbit_risk(flat, mask) == pytest.approx(1.0, abs=1e-15)


def test_cardioid_put_m4_frozen():
    spec = CardioidSpec.build(4, F(1), F(3))
    value = cardioid_put_closed_form(spec)
    assert value == pytest.approx(1 - math.sqrt(2) / 8, abs=1e-12)
    assert value == pytest.approx(0.8232233047033631, abs=1e-12)


def test_cardioid_put_m4_per_k_values():
    # k-candidates: 1 -> 1/6, 2 -> sqrt2/8, 3 -> 1/10 (scaled by gamma(t-1)/2sin(pi/m))
    spec = CardioidSpec.build(4, F(1), F(3))
    risks = {
        k: cardioid_orbit_risk(spec, (1 << k) - 1) for k in (1, 2, 3)
    }
    assert risks[1] == pytest.approx(1 - 1 / 6, abs=1e-12)
    assert risks[2] == pytest.approx(1 - math.sqrt(2) / 8, abs=1e-12)
    assert risks[3] == pytest.approx(1 - 1 / 10, abs=1e-12)
    assert min(risks.values()) == risks[2]


def test_cardioid_put_equals_min_over_orbits():
    for m in (3, 4, 5):
        for gamma in (F(1, 2), F(1)):
            for t in (F(2), F(3)):
                spec = CardioidSpec.build(m, gamma, t)
                group = cyclic_group(FiniteAlphabet.of_size(m))
                best = min(
                    cardioid_orbit_risk(spec, orbit.representative)
                    for orbit in subset_orbits(group)
                )
                assert cardioid_put_closed_form(spec) == pytest.approx(best, abs=1e-9)


def test_cardioid_put_gamma_to_zero():
    spec = CardioidSpec.build(4, F(1, 10**6), F(3))
    assert cardioid_put_closed_form(spec) == pytest.approx(1.0, abs=1e-5)


def test_cardioid_orbit_risk_representative_independent():
    spec = CardioidSpec.build(5, F(1), F(2))
    group = cyclic_group(FiniteAlphabet.of_size(5))
    for orbit in subset_orbits(group):
        values = {cardioid_orbit_risk(spec, mask) for mask in orbit.masks}
        assert max(values) - min(values) < 1e-12


def test_cardioid_generic_engine_matches_formula():
    """Direct Bayes-risk evaluation of the orbit channel matches the formula."""
    from oracles import pure_orbit_weights
    from ldpput.ldp_geometry import extremal_channel

    spec = CardioidSpec.build(4, F(1), F(3))
    group = cyclic_group(FiniteAlphabet.of_size(4))
    for idx, orbit in enumerate(subset_orbits(group)):
        channel = extremal_channel(pure_orbit_weights(group, idx, F(3)))
        generic = cardioid_bayes_risk(spec, channel)
        formula = cardioid_orbit_risk(spec, orbit.representative)
        assert generic == pytest.approx(formula, abs=1e-12)


@pytest.mark.parametrize("mask", [0b001, 0b011])
def test_cardioid_numeric_oracle(mask):
    spec = CardioidSpec.build(4, F(1), F(3))
    numeric = cardioid_orbit_risk_numeric(spec, mask, theta_grid=4000, action_grid=4000)
    assert numeric == pytest.approx(cardioid_orbit_risk(spec, mask), abs=1e-6)


def test_cardioid_equalizer_curve_flat():
    """theta-risk of the orbit-optimal rule is constant when |Z| > 0."""
    spec = CardioidSpec.build(5, F(1), F(2))
    mask = 0b00011
    base = cardioid_rule_risk(spec, mask, 0.0)
    for i in range(1, 40):
        theta = 2 * math.pi * i / 40
        assert cardioid_rule_risk(spec, mask, theta) == pytest.approx(base, abs=1e-9)
    assert base == pytest.approx(cardioid_orbit_risk(spec, mask), abs=1e-9)


def test_cardioid_rule_risk_blind_orbit_is_one():
    spec = CardioidSpec.build(4, F(1), F(2))
    for theta in (0.0, 1.0, 2.5):
        assert cardioid_rule_risk(spec, 0b0101, theta) == pytest.approx(1.0, abs=1e-12)


def test_cardioid_spec_validation():
    with pytest.raises(ValueError):
        CardioidSpec.build(2, F(1), F(2))
    with pytest.raises(ValueError):
        CardioidSpec.build(4, F(3, 2), F(2))
    with pytest.raises(ValueError):
        CardioidSpec.build(4, F(0), F(2))
