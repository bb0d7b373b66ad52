"""Tests for exact decision theory: risks, optimal rules, invariance, utilities."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput import decision
from ldpput.channels import Channel, compose
from ldpput.decision import (
    DecisionProblem,
    DecisionRule,
    Prior,
    bayes_linear_coefficients,
    bayes_optimal_risk,
    f_divergence_linear_coefficients,
    f_divergence_utility,
    minimax_risk,
    mutual_information,
    mutual_information_linear_coefficients,
)
from ldpput.groups import FiniteAlphabet, natural_action, symmetric_group
from ldpput.ldp_geometry import enumerate_polytope_vertices, extremal_channel
from ldpput.put_solver import random_private_channel
from ldpput.simplex import solve_standard_lp
from oracles import (
    InvarianceDeclaration,
    bayes_action_costs_reference,
    bayes_optimal_risk_reference,
    check_equalizer_reference,
    direct_sum,
    make_weight_vector,
    minimax_risk_reference,
    output_given_parameter_reference,
    risk_reference,
    staircase_matrix,
    verify_invariance,
)
from test_channels import draw_sparse_stochastic

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
    rule = DecisionRule.deterministic([0, 1], 2)
    assert risk_reference(p, 0, identity_channel(2), rule) == 0
    assert risk_reference(p, 1, identity_channel(2), rule) == 0


def test_risk_wrong_rule():
    p = binary_testing_problem()
    rule = DecisionRule.deterministic([1, 0], 2)
    assert risk_reference(p, 0, identity_channel(2), rule) == 1


def test_bayes_risk_rr():
    p = binary_testing_problem()
    value, rule = bayes_optimal_risk(p, Prior.uniform(2), rr(3))
    assert value == F(1, 4)
    assert rule.probs == ((F(1), F(0)), (F(0), F(1)))


def test_bayes_risk_uninformative_channel():
    p = binary_testing_problem()
    value, _ = bayes_optimal_risk(p, Prior.uniform(2), uniform_channel(2))
    assert value == F(1, 2)


def test_bayes_rule_tie_break_lowest_action():
    p = binary_testing_problem()
    _, rule = bayes_optimal_risk(p, Prior.uniform(2), uniform_channel(2))
    # every action is optimal at every output; index 0 must be picked
    assert all(row[0] == 1 for row in rule.probs)


def test_bayes_risk_skewed_prior():
    p = binary_testing_problem()
    prior = Prior.build(["9/10", "1/10"])
    value, rule = bayes_optimal_risk(p, prior, uniform_channel(2))
    # always guessing the likely parameter
    assert value == F(1, 10)
    assert all(row[0] == 1 for row in rule.probs)


def test_bayes_risk_matches_manual_formula():
    p = binary_testing_problem()
    t = F(2)
    q = rr(t)
    value, _ = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert value == 1 / (t + 1)


# -- minimax ------------------------------------------------------------------


def test_minimax_symmetric_equals_bayes():
    p = binary_testing_problem()
    q = rr(3)
    mm, _ = minimax_risk(p, q)
    bayes, _ = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert mm == bayes == F(1, 4)


def test_minimax_asymmetric_exceeds_uniform_bayes():
    p = asymmetric_problem()
    q = uniform_channel(2)
    mm, rule = minimax_risk(p, q)
    assert mm == F(3, 4)
    bayes, _ = bayes_optimal_risk(p, Prior.uniform(2), q)
    assert bayes == F(1, 2)
    # the optimal rule equalizes both parameter risks
    assert risk_reference(p, 0, q, rule) == risk_reference(p, 1, q, rule) == F(3, 4)


def test_minimax_rule_is_feasible():
    p = asymmetric_problem()
    _, rule = minimax_risk(p, rr(2))
    for row in rule.probs:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)


def test_minimax_value_is_max_over_parameters():
    p = asymmetric_problem()
    q = rr(2)
    mm, rule = minimax_risk(p, q)
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
    base, _ = bayes_optimal_risk(p, Prior.uniform(m), q)
    for g in group.elements:
        moved = apply_group_element(g, sigma, q)
        value, _ = bayes_optimal_risk(p, Prior.uniform(m), moved)
        assert value == base
        mm_base, _ = minimax_risk(p, q)
        mm_moved, _ = minimax_risk(p, moved)
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
    assert bayes_optimal_risk(p, prior, degraded)[0] >= bayes_optimal_risk(p, prior, q)[0]
    assert minimax_risk(p, degraded)[0] >= minimax_risk(p, q)[0]


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
    lhs = bayes_optimal_risk(p, prior, s)[0]
    rhs = lam * bayes_optimal_risk(p, prior, q1)[0] + (1 - lam) * bayes_optimal_risk(p, prior, q2)[0]
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
    assert minimax_risk(p, s)[0] <= max(minimax_risk(p, q1)[0], minimax_risk(p, q2)[0])


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
    lhs = bayes_optimal_risk(p, prior, mixed)[0]
    rhs = lam * bayes_optimal_risk(p, prior, q1)[0] + (1 - lam) * bayes_optimal_risk(p, prior, q2)[0]
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
        direct, _ = bayes_optimal_risk(p, prior, extremal_channel(v))
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
    at every output) or not, with zero losses, and a model with zero
    entries and columns over unrelated denominators."""
    n_par = draw(st.integers(min_value=1, max_value=max_parameters))
    m = draw(st.integers(min_value=2, max_value=4))
    n_act = draw(st.integers(min_value=1, max_value=4))
    model = draw_sparse_stochastic(draw, m, n_par).rows
    entry = st.fractions(min_value=0, max_value=3, max_denominator=3)
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
    prior = Prior(values=draw_sparse_stochastic(draw, len(problem.parameters), 1).column(0))
    channel = draw_sparse_stochastic(draw, draw(st.integers(min_value=1, max_value=5)),
                                     problem.input_alphabet.size)
    return problem, prior, channel


@given(tied_bayes_case())
@settings(max_examples=200, deadline=None)
def test_bayes_optimal_risk_equals_fraction_reference(case):
    """Same value and same rule (ties to the lowest action) as the
    row-by-row Fraction computation."""
    problem, prior, channel = case
    assert bayes_optimal_risk(problem, prior, channel) == \
        bayes_optimal_risk_reference(problem, prior, channel)


@given(tied_bayes_case(), st.sampled_from(["1", "3/2", "2", "7/3"]))
@settings(max_examples=60, deadline=None)
def test_bayes_linear_coefficients_equal_fraction_reference(case, t):
    problem, prior, _ = case
    rows = staircase_matrix(problem.input_alphabet, F(t)).rows
    assert bayes_linear_coefficients(problem, prior, F(t)) == \
        [min(bayes_action_costs_reference(problem, prior, row)) for row in rows]


# -- the minimax LP over occurring outputs against its Fraction reference -----


@st.composite
def minimax_case(draw):
    """A tied problem with 1-4 parameters, a prior, and a channel: an
    m <= 4 vertex channel, an audit sample, a sparse channel (which may
    send a letter that no parameter produces to an output of its own, so
    a nonzero channel row has a zero likelihood row), or a direct sum
    with a zero-weight block."""
    problem = draw_tied_problem(draw, 4)
    model, m = problem.model, problem.input_alphabet.size
    prior = Prior(values=draw_sparse_stochastic(draw, len(problem.parameters), 1).column(0))
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
                                         alphabet, t)
    elif kind == "sparse":
        channel = sparse
    else:
        channel = direct_sum([0, 1], draw(st.permutations([vertex, sparse])))
    return problem, prior, channel


@given(minimax_case())
@settings(max_examples=100, deadline=None)
def test_minimax_risk_equals_fraction_reference(case):
    """The same value as the LP over every output, and a rule whose worst
    risk is that value, with action 0 at each output that cannot occur."""
    problem, _, channel = case
    value, rule = minimax_risk(problem, channel)
    want, _ = minimax_risk_reference(problem, channel)
    assert value == want
    assert len(rule.probs) == channel.num_outputs
    assert all(len(row) == len(problem.actions) for row in rule.probs)
    parameters = range(len(problem.parameters))
    risks = [risk_reference(problem, i, channel, rule) for i in parameters]
    assert max(risks) == value
    first = (F(1),) + (F(0),) * (len(problem.actions) - 1)
    for w_row, probs in zip(output_given_parameter_reference(problem, channel), rule.probs):
        if not any(w_row):
            assert probs == first


def test_minimax_lp_keeps_only_outputs_that_occur(monkeypatch):
    """Letter 2 is impossible under every parameter, so output "b" (which
    reads only letter 2) cannot occur, and "d" cannot occur at all: the LP
    has rows for "a" and "c" and the two parameters, and "b" and "d" get
    action 0."""
    problem = DecisionProblem.build((0, 1), (0, 1, 2), [["3/4", "1/4"], ["1/4", "3/4"], [0, 0]],
                                    (0, 1), [[0, 1], [1, 0]])
    channel = Channel.build((0, 1, 2), ("a", "b", "c", "d"),
                            [[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 0]])
    lps = []

    def recording_solve(a_eq, b_eq, cost):
        lps.append(a_eq)
        return solve_standard_lp(a_eq, b_eq, cost)

    monkeypatch.setattr(decision, "solve_standard_lp", recording_solve)
    value, rule = minimax_risk(problem, channel)
    assert value == minimax_risk_reference(problem, channel)[0] == F(1, 4)
    assert [len(a_eq) for a_eq in lps] == [4]
    assert rule.probs == ((F(1), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(0)))
