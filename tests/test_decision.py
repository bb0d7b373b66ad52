"""Tests for exact decision theory: risks, optimal rules, invariance, utilities."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput import decision, simplex
from ldpput.applications import CardioidSpec, cardioid_bayes_risk, ht_problem, ht_subset_risk
from ldpput.channels import Channel, compose
from ldpput.decision import (
    F_DIVERGENCES,
    DecisionProblem,
    Prior,
    bayes_linear_coefficients,
    bayes_optimal_risk,
    f_divergence_linear_coefficients,
    f_divergence_utility,
    minimax_risk,
    mutual_information,
    mutual_information_linear_coefficients,
)
from ldpput.groups import FiniteAlphabet, cyclic_group, symmetric_group
from ldpput.invariant import enumerate_invariant_vertices
from ldpput.ldp_geometry import enumerate_polytope_vertices, extremal_channel
from ldpput.put_solver import random_private_channel
from ldpput.simplex import solve_standard_lp
from oracles import (
    InvarianceDeclaration,
    bayes_action_costs_reference,
    bayes_linear_coefficients_reference,
    bayes_optimal_risk_reference,
    check_equalizer_reference,
    column,
    deterministic_rule,
    direct_sum,
    extremal_channel_reference,
    make_weight_vector,
    minimax_risk_reference,
    natural_action,
    random_polytope_point,
    risk_reference,
    staircase_matrix,
    verify_invariance,
    without_zero_rows,
)
from test_channels import draw_sparse_stochastic
from test_linalg_simplex import _recording_pivots

F = Fraction


def rr(t) -> Channel:
    t = F(t)
    return Channel.build(
        [0, 1], [0, 1], [[t / (t + 1), 1 / (t + 1)], [1 / (t + 1), t / (t + 1)]]
    )


def identity_channel(m: int) -> Channel:
    return Channel.build(
        list(range(m)),
        list(range(m)),
        [[F(int(y == x)) for x in range(m)] for y in range(m)],
    )


def uniform_channel(m: int) -> Channel:
    return Channel.build(
        list(range(m)), list(range(m)), [[F(1, m)] * m for _ in range(m)]
    )


def binary_testing_problem() -> DecisionProblem:
    """Tell apart two point masses under 0-1 loss."""
    return DecisionProblem.build(
        parameters=(0, 1),
        input_letters=(0, 1),
        model=[[1, 0], [0, 1]],
        actions=(0, 1),
        loss=[[0, 1], [1, 0]],
    )


def asymmetric_problem() -> DecisionProblem:
    """0-1-ish loss with a 3x penalty on one error direction."""
    return DecisionProblem.build(
        parameters=(0, 1),
        input_letters=(0, 1),
        model=[[1, 0], [0, 1]],
        actions=(0, 1),
        loss=[[0, 1], [3, 0]],
    )


# -- risk and Bayes rule ------------------------------------------------------


def test_risk_identity_channel_perfect_rule():
    p = binary_testing_problem()
    rule = deterministic_rule([0, 1], 2)
    assert risk_reference(p, 0, identity_channel(2), rule) == 0
    assert risk_reference(p, 1, identity_channel(2), rule) == 0


@pytest.mark.parametrize("parameters, actions, message", [
    ((), (0, 1), "at least one parameter"),
    ((0, 1), (), "at least one action"),
])
def test_problem_refuses_empty_lists(parameters, actions, message):
    model = [[F(1, 2)] * len(parameters)] * 2
    with pytest.raises(ValueError, match=message):
        DecisionProblem.build(parameters, (0, 1), model, actions,
                              [[0] * len(actions) for _ in parameters])


def test_integer_forms_are_built_once_and_exact():
    p = DecisionProblem.build((0, 1), (0, 1), [["1/3", "1/2"], ["2/3", "1/2"]], (0, 1),
                              [["1/2", 2], [3, "1/4"]])
    prior = Prior.build(["2/3", "1/3"])
    assert p.integer_model is p.integer_model
    for (rows, d), fractions in [(p.integer_model, p.model), (p.integer_loss, p.loss),
                                 (([prior.integer_values[0]], prior.integer_values[1]),
                                  [prior.values])]:
        assert [[F(v, d) for v in row] for row in rows] == [list(row) for row in fractions]


def test_risk_wrong_rule():
    p = binary_testing_problem()
    rule = deterministic_rule([1, 0], 2)
    assert risk_reference(p, 0, identity_channel(2), rule) == 1


def test_bayes_risk_rr():
    p = binary_testing_problem()
    value, rule = bayes_optimal_risk_reference(p, Prior.uniform(2), rr(3))
    assert bayes_optimal_risk(p, Prior.uniform(2), rr(3)) == value
    assert value == F(1, 4)
    assert rule.probs == ((F(1), F(0)), (F(0), F(1)))


def test_bayes_risk_uninformative_channel():
    p = binary_testing_problem()
    value = bayes_optimal_risk(p, Prior.uniform(2), uniform_channel(2))
    assert value == F(1, 2)


def test_bayes_rule_tie_break_lowest_action():
    p = binary_testing_problem()
    _, rule = bayes_optimal_risk_reference(p, Prior.uniform(2), uniform_channel(2))
    # every action is optimal at every output; index 0 must be picked
    assert all(row[0] == 1 for row in rule.probs)


def test_bayes_risk_skewed_prior():
    p = binary_testing_problem()
    prior = Prior.build(["9/10", "1/10"])
    value, rule = bayes_optimal_risk_reference(p, prior, uniform_channel(2))
    assert bayes_optimal_risk(p, prior, uniform_channel(2)) == value
    # always guessing the likely parameter
    assert value == F(1, 10)
    assert all(row[0] == 1 for row in rule.probs)


def test_bayes_risk_matches_manual_formula():
    p = binary_testing_problem()
    t = F(2)
    q = rr(t)
    value = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert value == 1 / (t + 1)


# -- minimax ------------------------------------------------------------------


def test_minimax_symmetric_equals_bayes():
    p = binary_testing_problem()
    q = rr(3)
    mm = minimax_risk(p, q)
    bayes = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert mm == bayes == F(1, 4)


def test_minimax_asymmetric_exceeds_uniform_bayes():
    p = asymmetric_problem()
    q = uniform_channel(2)
    mm = minimax_risk(p, q)
    _, rule = minimax_risk_reference(p, q)
    assert mm == F(3, 4)
    bayes = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert bayes == F(1, 2)
    # the optimal rule equalizes both parameter risks
    assert risk_reference(p, 0, q, rule) == risk_reference(p, 1, q, rule) == F(3, 4)


def test_minimax_rule_is_feasible():
    p = asymmetric_problem()
    _, rule = minimax_risk_reference(p, rr(2))
    for row in rule.probs:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)


def test_minimax_value_is_max_over_parameters():
    p = asymmetric_problem()
    q = rr(2)
    mm = minimax_risk(p, q)
    _, rule = minimax_risk_reference(p, q)
    assert mm == max(risk_reference(p, i, q, rule) for i in range(2))


def test_check_equalizer_passes_symmetric():
    p = binary_testing_problem()
    assert check_equalizer_reference(p, Prior.uniform(2), rr(3))


def test_check_equalizer_fails_when_spread():
    p = binary_testing_problem()
    # a channel that reveals parameter 0 perfectly but not parameter 1
    q = Channel.build([0, 1], [0, 1], [["1", "1/2"], ["0", "1/2"]])
    assert not check_equalizer_reference(p, Prior.build(["2/3", "1/3"]), q)


# -- invariance ---------------------------------------------------------------


def test_verify_invariance_symmetric_testing():
    m = 3
    p = DecisionProblem.build(
        parameters=tuple(range(m)),
        input_letters=tuple(range(m)),
        model=[[F(int(x == i)) for i in range(m)] for x in range(m)],
        actions=tuple(range(m)),
        loss=[[F(int(i != a)) for a in range(m)] for i in range(m)],
    )
    group = symmetric_group(FiniteAlphabet.of_size(m))
    decl = InvarianceDeclaration(
        group=group,
        parameter_action=natural_action(group),
        action_action=natural_action(group),
    )
    assert verify_invariance(p, decl, Prior.uniform(m))


def test_verify_invariance_rejects_asymmetric_loss():
    p = asymmetric_problem()
    group = symmetric_group(FiniteAlphabet.of_size(2))
    decl = InvarianceDeclaration(
        group=group,
        parameter_action=natural_action(group),
        action_action=natural_action(group),
    )
    assert not verify_invariance(p, decl, Prior.uniform(2))


def test_bayes_risk_invariant_under_group_moves():
    from oracles import apply_group_element

    m = 3
    p = DecisionProblem.build(
        parameters=tuple(range(m)),
        input_letters=tuple(range(m)),
        model=[[F(int(x == i)) for i in range(m)] for x in range(m)],
        actions=tuple(range(m)),
        loss=[[F(int(i != a)) for a in range(m)] for i in range(m)],
    )
    group = symmetric_group(FiniteAlphabet.of_size(m))
    sigma = natural_action(group)
    q = Channel.build(
        [0, 1, 2],
        [0, 1, 2],
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]],
    )
    base = bayes_optimal_risk(p, Prior.uniform(m), q)
    for g in group.elements:
        moved = apply_group_element(g, sigma, q)
        value = bayes_optimal_risk(p, Prior.uniform(m), moved)
        assert value == base
        mm_base = minimax_risk(p, q)
        mm_moved = minimax_risk(p, moved)
        assert mm_moved == mm_base


# -- functional properties (randomized) ----------------------------------------


def _random_problem(rng: random.Random) -> DecisionProblem:
    n_par = rng.randint(2, 3)
    m = rng.randint(2, 3)
    n_act = rng.randint(2, 3)
    cols = []
    for _ in range(n_par):
        raw = [rng.randint(1, 6) for _ in range(m)]
        tot = sum(raw)
        cols.append([F(v, tot) for v in raw])
    model = [[cols[i][x] for i in range(n_par)] for x in range(m)]
    loss = [[F(rng.randint(0, 4)) for _ in range(n_act)] for _ in range(n_par)]
    return DecisionProblem.build(
        parameters=tuple(range(n_par)),
        input_letters=tuple(range(m)),
        model=model,
        actions=tuple(range(n_act)),
        loss=loss,
    )


def _random_channel(rng: random.Random, n_in: int, n_out: int) -> Channel:
    cols = []
    for _ in range(n_in):
        raw = [rng.randint(1, 6) for _ in range(n_out)]
        tot = sum(raw)
        cols.append([F(v, tot) for v in raw])
    rows = [[cols[x][y] for x in range(n_in)] for y in range(n_out)]
    return Channel.build(list(range(n_in)), list(range(n_out)), rows)


def _random_prior(rng: random.Random, n: int) -> Prior:
    raw = [rng.randint(1, 6) for _ in range(n)]
    tot = sum(raw)
    return Prior.build([F(v, tot) for v in raw])


@pytest.mark.parametrize("seed", range(30))
def test_dpi_bayes_and_minimax(seed):
    """Post-processing never lowers risk, exactly."""
    rng = random.Random(seed)
    p = _random_problem(rng)
    m = p.input_alphabet.size
    q = _random_channel(rng, m, rng.randint(2, 4))
    w = _random_channel(rng, q.output_alphabet.size, rng.randint(2, 3))
    prior = _random_prior(rng, len(p.parameters))
    degraded = compose(w, q)
    assert bayes_optimal_risk(p, prior, degraded) >= bayes_optimal_risk(p, prior, q)
    assert minimax_risk(p, degraded) >= minimax_risk(p, q)


@pytest.mark.parametrize("seed", range(30))
def test_dsa_bayes_exact(seed):
    """Bayes risk is affine over direct sums."""
    rng = random.Random(seed)
    p = _random_problem(rng)
    m = p.input_alphabet.size
    q1 = _random_channel(rng, m, rng.randint(2, 3))
    q2 = _random_channel(rng, m, rng.randint(2, 3))
    lam = F(rng.randint(1, 9), 10)
    s = direct_sum([lam, 1 - lam], [q1, q2])
    prior = _random_prior(rng, len(p.parameters))
    lhs = bayes_optimal_risk(p, prior, s)
    rhs = lam * bayes_optimal_risk(p, prior, q1) + (1 - lam) * bayes_optimal_risk(p, prior, q2)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(30))
def test_ds_qcvx_minimax(seed):
    """Minimax risk of a direct sum never beats the worst component."""
    rng = random.Random(seed)
    p = _random_problem(rng)
    m = p.input_alphabet.size
    q1 = _random_channel(rng, m, rng.randint(2, 3))
    q2 = _random_channel(rng, m, rng.randint(2, 3))
    lam = F(rng.randint(1, 9), 10)
    s = direct_sum([lam, 1 - lam], [q1, q2])
    assert minimax_risk(p, s) <= max(minimax_risk(p, q1), minimax_risk(p, q2))


@pytest.mark.parametrize("seed", range(30))
def test_ccv_bayes_concave_in_channel(seed):
    """Bayes risk is concave over entrywise channel mixtures."""
    rng = random.Random(seed)
    p = _random_problem(rng)
    m = p.input_alphabet.size
    n_out = rng.randint(2, 3)
    q1 = _random_channel(rng, m, n_out)
    q2 = _random_channel(rng, m, n_out)
    lam = F(rng.randint(1, 9), 10)
    mixed = Channel.build(
        list(range(m)),
        list(range(n_out)),
        [
            [lam * q1.rows[y][x] + (1 - lam) * q2.rows[y][x] for x in range(m)]
            for y in range(n_out)
        ],
    )
    prior = _random_prior(rng, len(p.parameters))
    lhs = bayes_optimal_risk(p, prior, mixed)
    rhs = lam * bayes_optimal_risk(p, prior, q1) + (1 - lam) * bayes_optimal_risk(p, prior, q2)
    assert lhs >= rhs


# -- information utilities ----------------------------------------------------


def test_mutual_information_rr():
    value = mutual_information(rr(3), [F(1, 2), F(1, 2)])
    expected = math.log(2) + 0.25 * math.log(0.25) + 0.75 * math.log(0.75)
    assert abs(value - expected) < 1e-12


def test_mutual_information_uninformative_zero():
    assert abs(mutual_information(uniform_channel(3), [F(1, 3)] * 3)) < 1e-15


def test_mutual_information_identity_is_entropy():
    dist = [F(1, 2), F(1, 4), F(1, 4)]
    value = mutual_information(identity_channel(3), dist)
    expected = -sum(float(p) * math.log(float(p)) for p in dist)
    assert abs(value - expected) < 1e-12


def test_mi_never_increases_under_post_processing():
    rng = random.Random(7)
    for _ in range(25):
        q = _random_channel(rng, 3, rng.randint(2, 4))
        w = _random_channel(rng, q.output_alphabet.size, rng.randint(2, 3))
        raw = [rng.randint(1, 5) for _ in range(3)]
        tot = sum(raw)
        dist = [F(v, tot) for v in raw]
        assert mutual_information(compose(w, q), dist) <= mutual_information(q, dist) + 1e-12


def test_tv_through_rr():
    val = f_divergence_utility(rr(3), "tv", [F(1), F(0)], [F(0), F(1)])
    assert val == pytest.approx(0.5, abs=1e-15)


def test_tv_exact_half_formula():
    # TV through RR(t) between the two point masses is (t-1)/(t+1)
    for t in (F(2), F(3), F(5)):
        val = f_divergence_utility(rr(t), "tv", [F(1), F(0)], [F(0), F(1)])
        assert val == pytest.approx(float((t - 1) / (t + 1)), abs=1e-15)


def test_kl_conventions():
    # both outputs positive: plain formula
    val = f_divergence_utility(rr(3), "kl", [F(1), F(0)], [F(0), F(1)])
    expected = 0.75 * math.log(3) + 0.25 * math.log(1 / 3)
    assert val == pytest.approx(expected, abs=1e-12)
    # q=0 with p>0 diverges
    ch = Channel.build([0, 1], [0, 1], [[1, 0], [0, 1]])
    assert f_divergence_utility(ch, "kl", [F(1), F(0)], [F(0), F(1)]) == math.inf


def test_chi2_rr():
    # chi2(p0||p1) = sum (p0-p1)^2 / p1
    val = f_divergence_utility(rr(3), "chi2", [F(1), F(0)], [F(0), F(1)])
    d = F(3, 4) - F(1, 4)
    expected = float(d * d / F(1, 4) + d * d / F(3, 4))
    assert val == pytest.approx(expected, abs=1e-12)


def test_hellinger2_bounds():
    val = f_divergence_utility(rr(3), "hellinger2", [F(1), F(0)], [F(0), F(1)])
    assert 0 < val < 2


def test_f_divergence_never_increases_under_post_processing():
    rng = random.Random(11)
    for _ in range(20):
        q = _random_channel(rng, 2, rng.randint(2, 4))
        w = _random_channel(rng, q.output_alphabet.size, rng.randint(2, 3))
        for name in ("tv", "chi2", "hellinger2"):
            before = f_divergence_utility(q, name, [F(1), F(0)], [F(0), F(1)])
            after = f_divergence_utility(compose(w, q), name, [F(1), F(0)], [F(0), F(1)])
            assert after <= before + 1e-12


def test_unknown_divergence_rejected():
    from ldpput.errors import UnsupportedDivergenceError

    with pytest.raises(UnsupportedDivergenceError):
        f_divergence_utility(rr(2), "renyi", [F(1), F(0)], [F(0), F(1)])


# -- linear coefficient forms -------------------------------------------------


def _weights_value(coeffs, weights):
    return sum(c * w for c, w in zip(coeffs, weights.values))


def test_bayes_linear_coefficients_match_risk():
    """Per-subset coefficients reproduce the Bayes risk of extremal channels."""
    m = 3
    t = F(2)
    p = DecisionProblem.build(
        parameters=tuple(range(m)),
        input_letters=tuple(range(m)),
        model=[[F(int(x == i)) for i in range(m)] for x in range(m)],
        actions=tuple(range(m)),
        loss=[[F(int(i != a)) for a in range(m)] for i in range(m)],
    )
    prior = Prior.uniform(m)
    alphabet = FiniteAlphabet.of_size(m)
    coeffs = bayes_linear_coefficients(p, prior, t)
    from ldpput.ldp_geometry import enumerate_polytope_vertices

    for v in enumerate_polytope_vertices(alphabet, t):
        direct = bayes_optimal_risk(p, prior, extremal_channel(v))
        assert _weights_value(coeffs, v) == direct


def test_mi_linear_coefficients_match_value():
    m = 3
    t = F(2)
    alphabet = FiniteAlphabet.of_size(m)
    dist = [F(1, 3)] * 3
    coeffs = mutual_information_linear_coefficients(dist, alphabet, t)
    from ldpput.ldp_geometry import enumerate_polytope_vertices

    for v in enumerate_polytope_vertices(alphabet, t):
        direct = mutual_information(extremal_channel(v), dist)
        linear = sum(c * float(w) for c, w in zip(coeffs, v.values))
        assert abs(direct - linear) < 1e-12


def test_f_divergence_linear_coefficients_match_value():
    m = 2
    t = F(3)
    alphabet = FiniteAlphabet.of_size(m)
    p0, p1 = [F(1), F(0)], [F(0), F(1)]
    coeffs = f_divergence_linear_coefficients("tv", p0, p1, alphabet, t)
    from ldpput.ldp_geometry import enumerate_polytope_vertices

    for v in enumerate_polytope_vertices(alphabet, t):
        direct = f_divergence_utility(extremal_channel(v), "tv", p0, p1)
        linear = sum(c * float(w) for c, w in zip(coeffs, v.values))
        assert abs(direct - linear) < 1e-12


# -- the integer Bayes kernel against its Fraction reference -------------------


def draw_tied_problem(draw, max_parameters: int) -> DecisionProblem:
    """A problem whose loss repeats an action column (so that action ties
    at every output) or not, with zero and negative losses, and a model
    with zero entries and columns over unrelated denominators."""
    n_par = draw(st.integers(min_value=1, max_value=max_parameters))
    m = draw(st.integers(min_value=2, max_value=4))
    n_act = draw(st.integers(min_value=1, max_value=4))
    model = draw_sparse_stochastic(draw, m, n_par).rows
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    loss = [[draw(entry) for _ in range(n_act)] for _ in range(n_par)]
    copy = draw(st.integers(min_value=-1, max_value=n_act - 1))
    if copy >= 0:
        loss = [row + [row[copy]] for row in loss]
    return DecisionProblem.build(tuple(range(n_par)), tuple(range(m)), model,
                                 tuple(range(len(loss[0]))), loss)


@st.composite
def tied_bayes_case(draw):
    """A tied problem with 1-3 parameters, a prior, and a channel with zero
    entries, maybe a zero row, and columns over unrelated denominators."""
    problem = draw_tied_problem(draw, 3)
    prior = Prior(values=column(draw_sparse_stochastic(draw, len(problem.parameters), 1), 0))
    channel = draw_sparse_stochastic(draw, draw(st.integers(min_value=1, max_value=5)),
                                     problem.input_alphabet.size)
    return problem, prior, channel


@given(tied_bayes_case())
@settings(max_examples=200, deadline=None)
def test_bayes_optimal_risk_equals_fraction_reference(case):
    """Same value as the row-by-row Fraction computation."""
    problem, prior, channel = case
    assert bayes_optimal_risk(problem, prior, channel) == \
        bayes_optimal_risk_reference(problem, prior, channel)[0]


@given(tied_bayes_case(), st.sampled_from(["1", "3/2", "2", "7/3"]))
@settings(max_examples=60, deadline=None)
def test_bayes_linear_coefficients_equal_fraction_reference(case, t):
    problem, prior, _ = case
    rows = staircase_matrix(problem.input_alphabet, F(t)).rows
    assert bayes_linear_coefficients(problem, prior, F(t)) == \
        [min(bayes_action_costs_reference(problem, prior, row)) for row in rows]


@st.composite
def wide_bayes_case(draw):
    """A problem on 1-10 letters with 1-3 parameters and 1-4 actions: a
    model with zero entries, zero, negative and tied losses (a repeated
    action column, or one constant loss), and a prior with zero entries."""
    m = draw(st.integers(min_value=1, max_value=10))
    n_par = draw(st.integers(min_value=1, max_value=3))
    n_act = draw(st.integers(min_value=1, max_value=4))
    model = draw_sparse_stochastic(draw, m, n_par).rows
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        loss = [[draw(entry) for _ in range(n_act)] for _ in range(n_par)]
    else:
        loss = [[draw(st.sampled_from([F(-1), F(0), F(2)]))] * n_act for _ in range(n_par)]
    copy = draw(st.integers(min_value=-1, max_value=n_act - 1))
    if copy >= 0:
        loss = [row + [row[copy]] for row in loss]
    problem = DecisionProblem.build(tuple(range(n_par)), tuple(range(m)), model,
                                    tuple(range(len(loss[0]))), loss)
    prior = Prior(values=column(draw_sparse_stochastic(draw, n_par, 1), 0))
    return problem, prior


@given(wide_bayes_case(), st.sampled_from(["1", "3/2", "2", "7/3", "5"]))
@settings(max_examples=200, deadline=None)
def test_subset_sum_form_equals_row_by_row_form(case, t):
    """The form built by doubling over the letters is the row-by-row
    integer form: the same Fractions, in mask order."""
    problem, prior = case
    form = bayes_linear_coefficients(problem, prior, F(t))
    assert form == bayes_linear_coefficients_reference(problem, prior, F(t))
    assert all(type(u) is Fraction for u in form)


def test_subset_sum_form_at_the_grouped_cap_gives_ht_subset_risks():
    """ht at m = 16: each of the 65,534 costs is the closed-form risk of
    its subset size."""
    m, gamma, t = 16, F(1, 2), F(2)
    problem, prior = ht_problem(m, gamma)
    form = bayes_linear_coefficients(problem, prior, t)
    assert len(form) == 2 ** m - 2
    risks = {}
    for mask, u in enumerate(form, start=1):
        # The pure size-k orbit puts m / (k*t + m - k) on each size-k cost.
        k = mask.bit_count()
        risks.setdefault(k, set()).add(u * m / (k * t + m - k))
    assert risks == {k: {ht_subset_risk(m, gamma, t, k)} for k in range(1, m)}


@st.composite
def zero_row_bayes_case(draw):
    """A problem, a prior and a channel with zero rows: a grouped vertex's
    extremal channel (one row per subset, zero off its support), or a
    direct sum with a zero-weight block."""
    problem = draw_tied_problem(draw, 3)
    prior = Prior(values=column(draw_sparse_stochastic(draw, len(problem.parameters), 1), 0))
    m = problem.input_alphabet.size
    alphabet = FiniteAlphabet.of_size(m)
    t = F(draw(st.sampled_from(["1", "3/2", "2", "5"])))
    group = draw(st.sampled_from([symmetric_group, cyclic_group]))(alphabet)
    vertices = enumerate_invariant_vertices(group, t)
    vertex = extremal_channel_reference(vertices[draw(st.integers(0, len(vertices) - 1))])
    if draw(st.booleans()) and not all(map(any, vertex.numerators)):
        return problem, prior, vertex
    # A live block whose nonzero rows have zero entries too.
    n_out = draw(st.integers(min_value=1, max_value=5))
    raw = [[draw(st.sampled_from([0, 0, 1, 3])) for _ in range(m)] for _ in range(n_out)]
    for x in range(m):
        raw[0][x] += not any(row[x] for row in raw)
    totals = [sum(row[x] for row in raw) for x in range(m)]
    sparse = Channel.build(range(m), range(n_out),
                           [[F(v, total) for v, total in zip(row, totals)] for row in raw])
    return problem, prior, direct_sum([0, 1], draw(st.permutations([vertex, sparse])))


@given(zero_row_bayes_case())
@settings(max_examples=150, deadline=None)
def test_bayes_optimal_risk_prices_live_rows_only(case):
    """Zero rows add nothing: the risk equals the Fraction reference's."""
    problem, prior, channel = case
    assert any(not any(row) for row in channel.numerators)
    assert bayes_optimal_risk(problem, prior, channel) == \
        bayes_optimal_risk_reference(problem, prior, channel)[0]


EQUIVALENCE_LEVELS = ("1", "3/2", "2", "7/3", "5")


@st.composite
def maximal_weights(draw):
    """A vertex or a random point of a full polytope (m = 2..5) or of a
    sym or cyclic polytope (m = 2..7), at t in EQUIVALENCE_LEVELS."""
    t = F(draw(st.sampled_from(EQUIVALENCE_LEVELS)))
    if draw(st.booleans()):
        vertices = enumerate_polytope_vertices(
            FiniteAlphabet.of_size(draw(st.integers(min_value=2, max_value=5))), t)
    else:
        alphabet = FiniteAlphabet.of_size(draw(st.integers(min_value=2, max_value=7)))
        group = draw(st.sampled_from([symmetric_group, cyclic_group]))(alphabet)
        vertices = enumerate_invariant_vertices(group, t)
    if draw(st.booleans()):
        return draw(st.sampled_from(vertices))
    return random_polytope_point(random.Random(draw(st.integers(0, 2 ** 16))), vertices)


@given(maximal_weights(), st.data())
@settings(max_examples=150, deadline=None)
def test_extremal_channel_is_the_reference_without_its_zero_rows(weights, data):
    """The same letters, rows, row order and denominator as the
    one-row-per-subset reference with its zero rows removed, and every
    objective the same value on both forms, exactly."""
    draw = data.draw
    q = extremal_channel(weights)
    reference = extremal_channel_reference(weights)
    assert q == without_zero_rows(reference)
    assert sorted(q.output_alphabet.letters) == list(weights.support)
    assert all(map(any, q.numerators))
    m = weights.input_alphabet.size
    n_par = draw(st.integers(min_value=1, max_value=3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    n_act = draw(st.integers(min_value=1, max_value=3))
    problem = DecisionProblem.build(
        tuple(range(n_par)), tuple(range(m)), draw_sparse_stochastic(draw, m, n_par).rows,
        tuple(range(n_act)), [[draw(entry) for _ in range(n_act)] for _ in range(n_par)])
    prior = Prior(values=column(draw_sparse_stochastic(draw, n_par, 1), 0))
    p0, p1, dist = (column(draw_sparse_stochastic(draw, m, 1), 0) for _ in range(3))
    objectives = [lambda c: bayes_optimal_risk(problem, prior, c),
                  lambda c: minimax_risk(problem, c),
                  lambda c: mutual_information(c, dist)]
    objectives += [lambda c, name=name: f_divergence_utility(c, name, p0, p1)
                   for name in F_DIVERGENCES]
    if m >= 3:
        spec = CardioidSpec.build(m, F(draw(st.integers(1, 4)), 4), weights.level)
        objectives.append(lambda c: cardioid_bayes_risk(spec, c))
    for objective in objectives:
        assert objective(q) == objective(reference)


# -- the minimax LP over occurring outputs against its Fraction reference -----


@st.composite
def minimax_case(draw):
    """A tied problem with 1-4 parameters and a channel: an m <= 4 vertex
    channel, an audit sample, a sparse channel (which may send a letter
    that no parameter produces to an output of its own, so a nonzero
    channel row has a zero likelihood row), or a direct sum with a
    zero-weight block."""
    problem = draw_tied_problem(draw, 4)
    model, m = problem.model, problem.input_alphabet.size
    alphabet = FiniteAlphabet.of_size(m)
    t = F(draw(st.sampled_from(["1", "3/2", "2", "5"])))
    vertices = enumerate_polytope_vertices(alphabet, t)
    vertex = extremal_channel(vertices[draw(st.integers(0, len(vertices) - 1))])
    sparse = draw_sparse_stochastic(draw, draw(st.integers(min_value=1, max_value=5)), m)
    blind = [x for x in range(m) if not any(model[x])]
    if blind and draw(st.booleans()):
        rows = [[0 if x == blind[0] else v for x, v in enumerate(row)] for row in sparse.rows]
        rows.append([int(x == blind[0]) for x in range(m)])
        sparse = Channel.build(range(m), range(len(rows)), rows)
    kind = draw(st.sampled_from(["vertex", "audit", "sparse", "direct_sum"]))
    if kind == "vertex":
        channel = vertex
    elif kind == "audit":
        channel = random_private_channel(random.Random(draw(st.integers(0, 2**16))),
                                         enumerate_polytope_vertices(alphabet, t))
    elif kind == "sparse":
        channel = sparse
    else:
        channel = direct_sum([0, 1], draw(st.permutations([vertex, sparse])))
    return problem, channel


@given(minimax_case())
@settings(max_examples=100, deadline=None)
def test_minimax_risk_equals_fraction_reference(case):
    """The same value as the two-phase LP over every output, whose rule
    has that value as its worst risk."""
    problem, channel = case
    value = minimax_risk(problem, channel)
    want, rule = minimax_risk_reference(problem, channel)
    assert value == want
    parameters = range(len(problem.parameters))
    assert max(risk_reference(problem, i, channel, rule) for i in parameters) == value


def _handed_over_lps(monkeypatch, problem, channel):
    """minimax_risk's value and each (a_eq, b_eq, cost, basis) it hands
    to the simplex."""
    lps = []

    def recording_solve(a_eq, b_eq, cost, basis):
        lps.append((a_eq, b_eq, cost, basis))
        return solve_standard_lp(a_eq, b_eq, cost, basis)

    monkeypatch.setattr(decision, "solve_standard_lp", recording_solve)
    return minimax_risk(problem, channel), lps


def _assert_canonical(a_eq, b_eq, basis):
    """Column basis[i] is the unit column of row i, and the rhs is >= 0:
    B = I, so the start point is b itself."""
    assert len(basis) == len(a_eq) == len(b_eq)
    for i, col in enumerate(basis):
        assert [row[col] for row in a_eq] == [int(k == i) for k in range(len(a_eq))]
    assert all(v >= 0 for v in b_eq)


def test_minimax_lp_keeps_only_outputs_that_occur(monkeypatch):
    """Letter 2 is impossible under every parameter, so output "b" (which
    reads only letter 2) cannot occur, and "d" cannot occur at all: the LP
    has rows for "a" and "c" and the two parameters.  Over 4, "a" has
    likelihoods (3, 1) and "c" (1, 3), so the start rule takes action 0 at
    "a" (cost 1 against 3) and action 1 at "c"; both parameters then risk
    1, and with top 4 (the largest loss, 1, over 4) both slacks start at
    4 - 1 = 3."""
    problem = DecisionProblem.build((0, 1), (0, 1, 2), [["3/4", "1/4"], ["1/4", "3/4"], [0, 0]],
                                    (0, 1), [[0, 1], [1, 0]])
    channel = Channel.build((0, 1, 2), ("a", "b", "c", "d"),
                            [[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 0]])
    value, lps = _handed_over_lps(monkeypatch, problem, channel)
    assert value == minimax_risk_reference(problem, channel)[0] == F(1, 4)
    # Columns: a0 a1 c0 c1 gap slack0 slack1.
    [(a_eq, b_eq, cost, basis)] = lps
    assert (len(a_eq), basis, b_eq) == (4, [0, 3, 5, 6], [1, 1, 3, 3])
    assert cost == [0, 0, 0, 0, -1, 0, 0]
    _assert_canonical(a_eq, b_eq, basis)


def test_minimax_lp_with_every_loss_negative(monkeypatch):
    """Every loss is negative, so top is too, and yet every start slack is
    >= 0.  Over 12, "a" has likelihoods (7, 5, 6) and "b" (5, 7, 6); the
    start rule takes action 0 at "a" (-43 against -40) and action 1 at "b"
    (-44 against -41), so the start risks are (-31, -38, -18), and with
    top -12 (the largest loss, -1, over 12) the slacks start at (19, 26,
    6)."""
    problem = DecisionProblem.build((0, 1, 2), (0, 1), [["3/4", "1/4", "1/2"], ["1/4", "3/4", "1/2"]],
                                    (0, 1), [[-3, -2], [-2, -4], [-2, -1]])
    channel = Channel.build((0, 1), ("a", "b"), [["2/3", "1/3"], ["1/3", "2/3"]])
    value, lps = _handed_over_lps(monkeypatch, problem, channel)
    assert value == minimax_risk_reference(problem, channel)[0]
    # Columns: a0 a1 b0 b1 gap slack0 slack1 slack2.
    [(a_eq, b_eq, _, basis)] = lps
    assert (len(a_eq), basis, b_eq) == (5, [0, 3, 5, 6, 7], [1, 1, 19, 26, 6])
    _assert_canonical(a_eq, b_eq, basis)


@pytest.mark.parametrize("loss, model, rows, basis, b_eq, value", [
    # One action: the only rule; the level sits at the larger risk, 2, so
    # parameter 1's slack starts at top - R_1 = 8 - 8 = 0.
    ([[1], [2]], [["3/4", "1/4"], ["1/4", "3/4"]], [[1, 0], [0, 1]], [0, 1, 3, 4],
     [1, 1, 4, 0], 2),
    # One parameter whose start risk is 0: its slack starts at top, 3.
    ([[0, 1]], [["1/3"], ["2/3"]], [[1, 0], [0, 1]], [0, 2, 5], [1, 1, 3], 0),
    # A tie in the start rule: both actions cost 4 at the one output, so
    # action 0 starts; its risks are (0, 4), under top 4.
    ([[0, 1], [1, 0]], [["3/4", "1/4"], ["1/4", "3/4"]], [[1, 1]], [0, 3, 4], [1, 4, 0],
     F(1, 2)),
], ids=["one_action", "one_parameter", "start_tie"])
def test_minimax_start_basis_edge_cases(monkeypatch, loss, model, rows, basis, b_eq, value):
    n_par, m = len(loss), len(model)
    problem = DecisionProblem.build(range(n_par), range(m), model, range(len(loss[0])), loss)
    channel = Channel.build(range(m), range(len(rows)), rows)
    got, [(a_eq, rhs, _, start)] = _handed_over_lps(monkeypatch, problem, channel)
    assert got == minimax_risk_reference(problem, channel)[0] == value
    assert (start, rhs) == (basis, b_eq)
    _assert_canonical(a_eq, rhs, start)


@given(minimax_case(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_minimax_risk_moves_with_a_constant_added_to_the_loss(case, c):
    """Every rule's risk at every parameter moves by exactly c, so the
    minimax risk does too, whatever the sign of top."""
    problem, channel = case
    moved = dataclasses.replace(problem, loss=tuple(tuple(v + c for v in row)
                                                    for row in problem.loss))
    assert minimax_risk(moved, channel) == minimax_risk(problem, channel) + c


@given(minimax_case())
@settings(max_examples=60, deadline=None)
def test_minimax_first_pivot_enters_the_gap_at_the_first_worst_parameter(case):
    """After the start pivots, the first phase-2 pivot enters the gap and
    takes out the slack of the first parameter whose start risk (each
    output at its cheapest action under the uniform prior) is the largest:
    the level then sits at that risk."""
    problem, channel = case
    n_par = len(problem.parameters)
    _, rule = bayes_optimal_risk_reference(problem, Prior.uniform(n_par), channel)
    risks = [risk_reference(problem, i, channel, rule) for i in range(n_par)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, [(_, _, cost, basis)] = _handed_over_lps(monkeypatch, problem, channel)
    n_live = len(basis) - n_par
    with _recording_pivots(simplex) as pivots:
        minimax_risk(problem, channel)
    assert pivots[len(basis)] == (n_live + risks.index(max(risks)), len(cost) - n_par - 1)


@given(minimax_case())
@settings(max_examples=60, deadline=None)
def test_minimax_lp_is_canonical_at_its_start_basis(case):
    """Every LP is handed over as B^-1 [A | b]: unit basis columns, rhs >= 0,
    and the simplex's start pivots (one per row, at the basis) update no
    row and leave the denominator at 1."""
    problem, channel = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, [(a_eq, b_eq, cost, basis)] = _handed_over_lps(monkeypatch, problem, channel)
    _assert_canonical(a_eq, b_eq, basis)
    rows = [[*a, b] for a, b in zip(a_eq, b_eq)]
    before = [(id(row), row[:]) for row in rows]
    with _recording_pivots(simplex) as pivots:
        start, d = simplex._start(rows, basis, len(cost))
    assert pivots == list(enumerate(basis))
    assert (start, d) == (basis, 1)
    assert [(id(row), row) for row in rows] == before
