"""Tests for the PUT minimization paths, certificates, and the random audit."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput import put_solver
from ldpput.channels import Channel, compose, is_ldp
from ldpput.applications import (
    CardioidSpec,
    cardioid_bayes_risk,
    ht_problem,
    ht_put_closed_form,
    ht_subset_risk,
)
from ldpput.decision import (
    DecisionProblem,
    Prior,
    bayes_linear_coefficients,
    bayes_optimal_risk,
    f_divergence_linear_coefficients,
    f_divergence_utility,
    mutual_information,
    mutual_information_linear_coefficients,
)
from ldpput.errors import AuditFailureError, DimensionCapError, ObjectiveMismatchError
from ldpput.groups import (
    FiniteAlphabet,
    all_subset_masks,
    cyclic_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from ldpput.invariant import enumerate_invariant_vertices
from ldpput.ldp_geometry import (
    enumerate_polytope_vertices,
    extremal_channel,
    in_weight_polytope,
    weight_polytope,
)
from ldpput.put_solver import (
    CERT_BOUND,
    CERT_EXACT,
    _random_counts,
    _sample_rng,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
    random_private_channel,
)
from ldpput.serialize import (
    channel_from_json,
    channel_to_json,
    maximality_certificate,
    weights_to_json,
)
from oracles import (
    BAYES_TRAITS,
    RiskTraits,
    bayes_optimal_risk_reference,
    compose_reference,
    random_polytope_point,
    random_post_processing,
    random_private_channel_reference,
    solve_standard_lp_reference,
    spot_check_traits,
    subset_size,
    vertex_sweep_reference,
    without_zero_rows,
)

F = Fraction


def guessing_problem(m: int) -> DecisionProblem:
    """Identify a uniformly random letter seen through the channel, 0-1 loss."""
    return DecisionProblem.build(
        parameters=tuple(range(m)),
        input_letters=tuple(range(m)),
        model=[[F(int(x == i)) for i in range(m)] for x in range(m)],
        actions=tuple(range(m)),
        loss=[[F(int(i != a)) for a in range(m)] for i in range(m)],
    )


def bayes_objective(m: int):
    p = guessing_problem(m)
    prior = Prior.uniform(m)

    def objective(channel: Channel) -> Fraction:
        return bayes_optimal_risk(p, prior, channel)

    return p, prior, objective


# -- vertex enumeration path --------------------------------------------------


def test_vertex_enumeration_m3_guessing():
    """Without a form the sweep is only a bound; with the Bayes form it is exact."""
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    res = put_by_vertex_enumeration(objective, alphabet, t)
    assert res.value == F(1, 2)
    assert res.method == "vertex_enumeration"
    assert res.certificate == CERT_BOUND
    assert in_weight_polytope(res.argmin_weights)
    assert objective(res.argmin_channel) == res.value
    linear = put_by_vertex_enumeration(objective, alphabet, t,
                                       coefficients=bayes_linear_coefficients(p, prior, t))
    assert (linear.value, linear.certificate) == (res.value, CERT_EXACT)


def test_vertex_enumeration_table_covers_all_vertices():
    """The sweep returns the first vertex at the minimum of the objective
    over every vertex of the polytope."""
    m, t = 3, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(objective, alphabet, t)
    table = [(v, objective(extremal_channel(v)))
             for v in enumerate_polytope_vertices(alphabet, t)]
    best = min(value for _, value in table)
    assert res.value == best
    assert res.argmin_weights == next(v for v, value in table if value == best)


def test_vertex_enumeration_grouped_matches_full():
    m, t = 4, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    full = put_by_vertex_enumeration(objective, alphabet, t)
    grouped = put_by_vertex_enumeration(
        objective, alphabet, t, group=symmetric_group(alphabet),
        coefficients=bayes_linear_coefficients(p, prior, t),
    )
    assert grouped.method == "vertex_enumeration_grouped"
    assert grouped.value == full.value
    assert grouped.certificate == CERT_EXACT


def test_grouped_sweep_of_asymmetric_problem_is_a_bound():
    """Problem P has no symmetry: its S_3-invariant best, 189/143, is above
    its optimum 181/143, so a grouped sweep may not call it exact."""
    from ldpput.serialize import problem_from_json
    from test_cli import ASYMMETRIC_PROBLEM

    p, prior = problem_from_json(ASYMMETRIC_PROBLEM)
    alphabet, t = p.input_alphabet, F(3)
    u = bayes_linear_coefficients(p, prior, t)

    def objective(channel):
        return bayes_optimal_risk(p, prior, channel)

    sym = symmetric_group(alphabet)
    for form in (u, None):
        res = put_by_vertex_enumeration(objective, alphabet, t, group=sym, coefficients=form)
        assert (res.value, res.certificate) == (F(189, 143), CERT_BOUND)
    full = put_by_vertex_enumeration(objective, alphabet, t, coefficients=u)
    assert (full.value, full.certificate) == (F(181, 143), CERT_EXACT)


_T_VALUES = (F(3, 2), F(2), F(3), F(5))


def _distribution(draw, n):
    raw = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    return [F(v, sum(raw)) for v in raw]


@st.composite
def _bayes_problems(draw):
    """A random rational Bayes problem on 2..4 letters, with a level."""
    m = draw(st.integers(min_value=2, max_value=4))
    n_par = draw(st.integers(min_value=2, max_value=3))
    n_act = draw(st.integers(min_value=2, max_value=3))
    columns = [_distribution(draw, m) for _ in range(n_par)]
    loss = [draw(st.lists(st.integers(min_value=0, max_value=4),
                          min_size=n_act, max_size=n_act)) for _ in range(n_par)]
    problem = DecisionProblem.build(
        parameters=range(n_par), input_letters=range(m),
        model=[[columns[i][x] for i in range(n_par)] for x in range(m)],
        actions=range(n_act), loss=loss)
    return problem, Prior.build(_distribution(draw, n_par)), draw(st.sampled_from(_T_VALUES))


@given(_bayes_problems(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_linear_form_sweep_matches_direct_sweep(case, grouped):
    """Scoring by u.w picks the vertex and channel the direct objective
    picks, and u.w is the objective at every vertex, on the full and the
    S_m-collapsed polytope."""
    p, prior, t = case
    alphabet = p.input_alphabet
    group = symmetric_group(alphabet) if grouped else None
    u = bayes_linear_coefficients(p, prior, t)

    def objective(channel):
        return bayes_optimal_risk(p, prior, channel)

    direct = put_by_vertex_enumeration(objective, alphabet, t, group=group)
    linear = put_by_vertex_enumeration(objective, alphabet, t, group=group, coefficients=u)
    assert linear.value == direct.value
    assert linear.argmin_weights == direct.argmin_weights
    assert linear.argmin_channel == direct.argmin_channel
    vertices = (enumerate_invariant_vertices(group, t) if grouped
                else enumerate_polytope_vertices(alphabet, t))
    for v in vertices:
        score = sum((w * u[mask - 1] for orbit, w in zip(v.orbits, v.values)
                     for mask in orbit.masks), F(0))
        assert score == objective(extremal_channel(v))


def test_wrong_linear_form_fails_the_argmin_check():
    """Lowering u on a subset the argmin uses keeps the argmin there and
    moves its score off the objective's value."""
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    u = bayes_linear_coefficients(p, prior, t)
    best = put_by_vertex_enumeration(objective, alphabet, t, coefficients=u)
    wrong = list(u)
    wrong[best.argmin_weights.support[0] - 1] -= F(1, 7)
    with pytest.raises(ObjectiveMismatchError):
        put_by_vertex_enumeration(objective, alphabet, t, coefficients=wrong)


def test_float_linear_form_is_checked_within_tolerance():
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    u = [float(c) for c in bayes_linear_coefficients(p, prior, t)]
    res = put_by_vertex_enumeration(lambda q: float(objective(q)), alphabet, t, coefficients=u)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    u[res.argmin_weights.support[0] - 1] -= 1e-6
    with pytest.raises(ObjectiveMismatchError):
        put_by_vertex_enumeration(lambda q: float(objective(q)), alphabet, t, coefficients=u)


def test_linear_form_length_is_checked():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    with pytest.raises(ValueError):
        put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t,
                                  coefficients=[F(1)] * 5)


def test_argmin_tie_break_is_first_index():
    # constant objective: every vertex ties; the first enumerated wins
    m, t = 3, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    res = put_by_vertex_enumeration(lambda q: F(1), alphabet, t)
    first = enumerate_polytope_vertices(alphabet, t)[0]
    assert res.argmin_weights.values == first.values


RATIONAL_T = st.integers(min_value=1, max_value=6).flatmap(
    lambda q: st.builds(F, st.integers(min_value=q, max_value=6 * q), st.just(q)))
FORM_ENTRY = st.one_of(
    st.builds(F, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12)),
    st.floats(min_value=-2, max_value=2, allow_nan=False))


def _form_objective(u):
    """The objective whose linear form is u: on a maximal channel, each
    output's subset (its letter) times the row's weight (its minimum)."""
    return lambda q: sum((u[y - 1] * min(row) for y, row in zip(q.output_alphabet.letters, q.rows)),
                         F(0))


@given(st.integers(min_value=2, max_value=4), RATIONAL_T,
       st.sampled_from([None, "sym", "cyclic"]), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_integer_sweep_matches_fraction_sweep(m, t, group_name, exact, data):
    """The sweep's value (type included) and argmin vertex equal the
    Fraction sweep's; a float is read as the binary rational it holds."""
    alphabet = FiniteAlphabet.of_size(m)
    group = {None: None, "sym": symmetric_group, "cyclic": cyclic_group}[group_name]
    group = group and group(alphabet)
    entry = FORM_ENTRY.filter(lambda v: isinstance(v, F)) if exact else FORM_ENTRY
    u = data.draw(st.lists(entry, min_size=(1 << m) - 2, max_size=(1 << m) - 2))
    res = put_by_vertex_enumeration(_form_objective(u), alphabet, t, group=group, coefficients=u)
    vertices = (enumerate_invariant_vertices(group, t) if group
                else enumerate_polytope_vertices(alphabet, t))
    value, best = vertex_sweep_reference(vertices, [F(v) for v in u])
    assert res.value == value and type(res.value) is type(value)
    assert res.argmin_weights == vertices[best]


@pytest.mark.parametrize("t", [F(3, 2), F(2), F(3), F(5)])
def test_integer_sweep_matches_fraction_sweep_ht_m5(t):
    """The benchmark's sweep: the ht Bayes form over the 1,291 vertices at m = 5."""
    m, alphabet = 5, FiniteAlphabet.of_size(5)
    problem, prior = ht_problem(m, F(1, 2))
    u = bayes_linear_coefficients(problem, prior, t)
    res = put_by_vertex_enumeration(lambda q: bayes_optimal_risk(problem, prior, q),
                                    alphabet, t, coefficients=u)
    vertices = enumerate_polytope_vertices(alphabet, t)
    value, best = vertex_sweep_reference(vertices, u)
    assert (res.value, res.argmin_weights) == (value, vertices[best])
    assert res.value == ht_put_closed_form(m, F(1, 2), t)


# -- LP path ------------------------------------------------------------------


def test_lp_matches_vertex_enumeration_exactly():
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    lp = put_by_lp(coeffs, alphabet, t)
    ve = put_by_vertex_enumeration(objective, alphabet, t)
    assert lp.value == ve.value
    assert lp.method == "lp"
    assert lp.certificate == CERT_EXACT
    assert objective(lp.argmin_channel) == lp.value


def test_lp_grouped_matches_ungrouped():
    m, t = 4, F(3)
    p, prior, _ = bayes_objective(m)
    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    plain = put_by_lp(coeffs, alphabet, t)
    grouped = put_by_lp(coeffs, alphabet, t, group=symmetric_group(alphabet))
    assert grouped.method == "lp_grouped"
    assert grouped.value == plain.value


def test_lp_full_polytope_keeps_the_enumeration_cap():
    """Past the cap the full-polytope LP refuses before any polytope is
    built; a group lifts the cap, and so does a raised one."""
    alphabet = FiniteAlphabet.of_size(6)
    with pytest.raises(DimensionCapError, match="capped at m <= 5, got m = 6"):
        put_by_lp(subset_sizes(6), alphabet, 2)
    grouped = put_by_lp(subset_sizes(6), alphabet, 2, group=symmetric_group(alphabet))
    assert put_by_lp(subset_sizes(6), alphabet, 2, cap=6).value == grouped.value


def test_argmin_channel_is_built_only_when_read(monkeypatch):
    """The LP and the closed form build no channel until one is read."""
    import ldpput.put_solver

    calls = []
    build = ldpput.put_solver.extremal_channel
    monkeypatch.setattr(ldpput.put_solver, "extremal_channel",
                        lambda weights: calls.append(weights) or build(weights))
    m, t = 4, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    results = [put_by_lp(subset_sizes(m), alphabet, t),
               put_by_lp(subset_sizes(m), alphabet, t, group=cyclic_group(alphabet)),
               put_transitive_closed_form(subset_sizes(m), symmetric_group(alphabet), t)]
    assert calls == []
    for res in results:
        assert res.argmin_channel is res.argmin_channel
        assert res.argmin_channel == extremal_channel(res.argmin_weights)
    assert calls == [res.argmin_weights for res in results]


def test_lp_grouped_certificate_needs_orbit_constant_coefficients():
    """A grouped LP is exact only for coefficients constant on subset orbits."""
    alphabet, t = FiniteAlphabet.of_size(3), F(2)
    sym = symmetric_group(alphabet)
    # masks 1..6; only the singleton {0} (mask 1) is cheap
    uneven = [F(1), F(3), F(3), F(3), F(3), F(3)]
    plain = put_by_lp(uneven, alphabet, t)
    grouped = put_by_lp(uneven, alphabet, t, group=sym)
    assert plain.certificate == CERT_EXACT
    assert grouped.certificate == CERT_BOUND
    assert (plain.value, grouped.value) == (F(4, 3), F(7, 4))
    by_size = [F(1), F(1), F(2), F(1), F(2), F(2)]
    assert put_by_lp(by_size, alphabet, t, group=sym).certificate == CERT_EXACT


def test_lp_exactifies_float_coefficients():
    # float coefficients are turned into exact rationals before solving
    alphabet = FiniteAlphabet.of_size(2)
    res = put_by_lp([0.25, 0.75], alphabet, F(3))
    assert isinstance(res.value, Fraction)


@pytest.mark.parametrize("solve", [
    lambda u, alphabet, t: put_by_lp(u, alphabet, t),
    lambda u, alphabet, t: put_by_vertex_enumeration(lambda q: F(1, 3), alphabet, t,
                                                     coefficients=u),
], ids=["lp", "sweep"])
def test_exact_coefficient_inputs_are_normalised(solve):
    # "p/q" strings are exact inputs to both solvers: u.w = 1/3 at m=2, t=2
    res = solve(["1/3", "2/3"], FiniteAlphabet.of_size(2), F(2))
    assert (res.value, res.certificate) == (F(1, 3), CERT_EXACT)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("t", [F(3, 2), F(2), F(5)])
def test_lp_vs_vertex_agreement_grid(m, t):
    p, prior, objective = bayes_objective(m)
    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    assert put_by_lp(coeffs, alphabet, t).value == \
        put_by_vertex_enumeration(objective, alphabet, t).value


def _seeded_bayes_problem(rng: random.Random, m: int) -> tuple[DecisionProblem, Prior]:
    """A random rational Bayes problem on m letters, losses -2..4."""
    def distribution(n):
        raw = [rng.randint(1, 9) for _ in range(n)]
        return [F(v, sum(raw)) for v in raw]

    n_par, n_act = rng.randint(2, 4), rng.randint(2, 4)
    columns = [distribution(m) for _ in range(n_par)]
    problem = DecisionProblem.build(
        parameters=range(n_par), input_letters=range(m),
        model=[[columns[i][x] for i in range(n_par)] for x in range(m)],
        actions=range(n_act),
        loss=[[rng.randint(-2, 4) for _ in range(n_act)] for _ in range(n_par)])
    return problem, Prior.build(distribution(n_par))


_LP_GROUPS = {
    "trivial": trivial_group,
    "cyclic": cyclic_group,
    "sym": symmetric_group,
    # The swap of letters 0 and 1 alone: two or more letter orbits at m >= 3.
    "transposition": lambda a: generate_group(a, [(1, 0, *range(2, a.size))]),
}


@pytest.mark.parametrize("group_name", list(_LP_GROUPS))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lp_from_randomized_response_matches_two_phase_reference(m, group_name):
    """Started at randomized response, put_by_lp finds the value and the
    x of the two-phase Fraction simplex on all the polytope's rows and the
    same orbit costs: seeded ht and random Bayes problems, t = 1 included."""
    rng = random.Random(f"{m}:{group_name}")
    alphabet = FiniteAlphabet.of_size(m)
    group = _LP_GROUPS[group_name](alphabet)
    for t in (F(1), F(4, 3), F(3, 2), F(2), F(3), F(5), F(11)):
        polytope = weight_polytope(group, t)
        for _ in range(3):
            problems = (ht_problem(m, F(rng.randint(1, 4), 4)),
                        _seeded_bayes_problem(rng, m))
            for problem, prior in problems:
                u = bayes_linear_coefficients(problem, prior, t)
                res = put_by_lp(u, alphabet, t, group=group)
                costs = [sum((u[mask - 1] for mask in orbit.masks), F(0))
                         for orbit in polytope.orbits]
                want = solve_standard_lp_reference(
                    [list(row) for row in polytope.rows],
                    [polytope.denominator] * len(polytope.rows), costs)
                assert res.value == want.value
                assert list(res.argmin_weights.values) == want.x


# -- transitive closed form ---------------------------------------------------


def subset_sizes(m: int) -> list[Fraction]:
    """|mask| for every nonempty proper subset: constant on any subset orbit."""
    return [F(subset_size(mask)) for mask in all_subset_masks(m)]


def test_transitive_closed_form_matches_enumeration():
    m, t = 4, F(2)
    p, prior, objective = bayes_objective(m)
    group = symmetric_group(FiniteAlphabet.of_size(m))

    from oracles import pure_orbit_weights
    from ldpput.ldp_geometry import extremal_channel, weight_polytope

    # the objective at the pure channel on each mask's orbit
    index = weight_polytope(group, t).orbit_index
    per_orbit = [objective(extremal_channel(pure_orbit_weights(group, idx, t)))
                 for idx in range(max(index) + 1)]
    values = [per_orbit[idx] for idx in index]

    closed = put_transitive_closed_form(values, group, t)
    assert closed.method == "transitive_closed_form"
    full = put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t)
    assert closed.value == full.value


def test_transitive_closed_form_builds_subset_orbits_once(monkeypatch):
    """One subset-orbit partition per call, however many orbits there are."""
    import ldpput.groups
    import ldpput.ldp_geometry

    m = 8
    group = cyclic_group(FiniteAlphabet.of_size(m))
    original = ldpput.groups.orbits
    carriers = []

    def counting_orbits(action):
        carriers.append(len(action.carrier))
        return original(action)

    monkeypatch.setattr(ldpput.groups, "orbits", counting_orbits)
    monkeypatch.setattr(ldpput.ldp_geometry, "orbits", counting_orbits)
    res = put_transitive_closed_form(subset_sizes(m), group, F(2))
    assert len(res.argmin_weights.orbits) > 1
    assert carriers.count((1 << m) - 2) == 1


def test_transitive_closed_form_rejects_intransitive():
    from ldpput.errors import NotTransitiveError
    from ldpput.groups import trivial_group

    with pytest.raises(NotTransitiveError):
        put_transitive_closed_form([F(1)] * 6, trivial_group(FiniteAlphabet.of_size(3)), F(2))


def test_transitive_closed_form_table_is_per_orbit():
    """C_4 has four subset orbits; the closed form takes the least of
    their values, at the pure weight on that orbit."""
    group = cyclic_group(FiniteAlphabet.of_size(4))
    res = put_transitive_closed_form(subset_sizes(4), group, F(2))
    table = [subset_sizes(4)[orbit.representative - 1] for orbit in res.argmin_weights.orbits]
    assert len(table) == 4
    assert res.value == min(table) == 1  # singleton orbit has k = 1
    assert res.certificate == CERT_EXACT
    assert [bool(w) for w in res.argmin_weights.values] == [v == 1 for v in table]


def _pure_orbit_values(u, m, t):
    """Bayes risk of the pure channel on each mask's orbit, from mask alone:
    the orbit's subsets share weight m / (|orbit| (k t + m - k))."""
    return [m * u[mask - 1] / (subset_size(mask) * t + m - subset_size(mask))
            for mask in all_subset_masks(m)]


def test_transitive_closed_form_refuses_values_off_orbit():
    """Problem P has no symmetry: its S_3 orbit values are not constant,
    and the orbit minimum 189/143 is not its optimum 181/143."""
    from ldpput.serialize import problem_from_json
    from test_cli import ASYMMETRIC_PROBLEM

    p, prior = problem_from_json(ASYMMETRIC_PROBLEM)
    t = F(3)
    values = _pure_orbit_values(bayes_linear_coefficients(p, prior, t), 3, t)
    with pytest.raises(ValueError, match="differ within a subset orbit"):
        put_transitive_closed_form(values, symmetric_group(p.input_alphabet), t)


@given(st.integers(min_value=3, max_value=5), st.sampled_from(_T_VALUES),
       st.sampled_from((F(1, 3), F(1, 2), F(1))), st.booleans())
@settings(max_examples=30, deadline=None)
def test_transitive_closed_form_matches_grouped_sweep_and_lp(m, t, gamma, cyclic):
    problem, prior = ht_problem(m, gamma)
    alphabet = problem.input_alphabet
    group = cyclic_group(alphabet) if cyclic else symmetric_group(alphabet)
    u = bayes_linear_coefficients(problem, prior, t)
    values = _pure_orbit_values(u, m, t)
    assert values == [ht_subset_risk(m, gamma, t, subset_size(mask))
                      for mask in all_subset_masks(m)]
    closed = put_transitive_closed_form(values, group, t)
    sweep = put_by_vertex_enumeration(
        lambda q: bayes_optimal_risk(problem, prior, q), alphabet, t, group=group,
        coefficients=u)
    lp = put_by_lp(u, alphabet, t, group=group)
    for res in (sweep, lp):
        assert res.value == closed.value
        assert res.argmin_weights == closed.argmin_weights
        assert res.certificate == closed.certificate == CERT_EXACT


def test_transitive_closed_form_float_values_within_tolerance():
    """Float values may differ within an orbit by rounding, not more."""
    from ldpput.applications import CardioidSpec, cardioid_orbit_risk

    m, t = 5, F(3)
    spec = CardioidSpec.build(m, F(1), t)
    group = cyclic_group(FiniteAlphabet.of_size(m))
    risks = [cardioid_orbit_risk(spec, mask) for mask in all_subset_masks(m)]
    base = put_transitive_closed_form(risks, group, t)
    # mask 2 = {1} shares the singleton orbit with its representative, mask 1
    for delta, accepted in ((1e-12, True), (1e-6, False)):
        nudged = list(risks)
        nudged[2 - 1] += delta
        if accepted:
            res = put_transitive_closed_form(nudged, group, t)
            assert (res.value, res.argmin_weights) == (base.value, base.argmin_weights)
        else:
            with pytest.raises(ValueError):
                put_transitive_closed_form(nudged, group, t)


def test_transitive_closed_form_value_count_is_checked():
    group = cyclic_group(FiniteAlphabet.of_size(4))
    with pytest.raises(ValueError, match="need 14"):
        put_transitive_closed_form(subset_sizes(4)[:-1], group, F(2))


def test_float_linear_form_is_orbit_constant_within_tolerance():
    """Negated mutual information under a uniform input is S_4-invariant;
    its float coefficients differ within an orbit only by rounding, so
    the grouped LP and the grouped sweep are both exact."""
    m, t = 4, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    uniform = [F(1, m)] * m
    u = [-c for c in mutual_information_linear_coefficients(uniform, alphabet, t)]
    sym = symmetric_group(alphabet)
    lp = put_by_lp(u, alphabet, t, group=sym)
    sweep = put_by_vertex_enumeration(lambda q: -mutual_information(q, uniform), alphabet,
                                      t, group=sym, coefficients=u)
    assert lp.certificate == sweep.certificate == CERT_EXACT
    assert float(lp.value) == pytest.approx(sweep.value, abs=1e-12)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("utility", ["mi", "kl", "tv", "chi2", "hellinger2"])
def test_sweep_and_lp_read_a_float_form_alike(m, utility):
    """Negated information forms are floats.  The sweep once scored them
    as rounded float sums while the LP read their binary rationals, so
    the two printed different "exact" values.  Both now read the form
    exactly and return the same Fraction.  The uniform-input information
    form is S_m-invariant within FLOAT_TOLERANCE, so it stays exact under
    S_m; the divergence from a tilted p0 does not, so it is a bound
    there."""
    alphabet = FiniteAlphabet.of_size(m)
    uniform = [F(1, m)] * m
    tilted = [F(2 * (x + 1), m * (m + 1)) for x in range(m)]

    def objective(q):
        if utility == "mi":
            return -mutual_information(q, uniform)
        return -f_divergence_utility(q, utility, tilted, uniform)

    for t in (F(3, 2), F(2), F(5)):
        if utility == "mi":
            u = mutual_information_linear_coefficients(uniform, alphabet, t)
        else:
            u = f_divergence_linear_coefficients(utility, tilted, uniform, alphabet, t)
        u = [-c for c in u]
        for group in (None, symmetric_group(alphabet)):
            lp = put_by_lp(u, alphabet, t, group=group)
            sweep = put_by_vertex_enumeration(objective, alphabet, t, group=group,
                                              coefficients=u)
            assert type(sweep.value) is F and sweep.value == lp.value, (t, group)
            expected = CERT_EXACT if group is None or utility == "mi" else CERT_BOUND
            assert sweep.certificate == lp.certificate == expected


@given(st.integers(min_value=2, max_value=6), st.booleans(),
       st.sampled_from([F(1, 10 ** 12), F(-1, 3)]), st.data())
@settings(max_examples=40, deadline=None)
def test_constant_on_orbits_is_exact_only_for_fraction_forms(m, cyclic, shift, data):
    """An all-Fraction form is compared exactly: moving one singleton's
    value by 10^-12 breaks it.  A float form, or a pair of values of which
    one is a float, is compared within FLOAT_TOLERANCE, so only the larger
    move breaks it."""
    alphabet = FiniteAlphabet.of_size(m)
    orbits = (cyclic_group if cyclic else symmetric_group)(alphabet).subset_orbits
    form = [F(0)] * ((1 << m) - 2)
    for orbit in orbits:
        num, den = data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9))
        for mask in orbit.masks:
            form[mask - 1] = F(num, den)  # equal values, distinct objects
    assert put_solver.constant_on_orbits(form, orbits)
    # Masks 1 and 2 ({0} and {1}) share an orbit under both groups.
    moved = form[:]
    moved[1] += shift
    tolerated = abs(shift) <= put_solver.FLOAT_TOLERANCE
    assert not put_solver.constant_on_orbits(moved, orbits)
    assert put_solver.constant_on_orbits([float(u) for u in moved], orbits) == tolerated
    mixed = moved[:]
    mixed[1] = float(moved[1])
    assert put_solver.constant_on_orbits(mixed, orbits) == tolerated


def test_exact_values_are_compared_without_tolerance():
    """Ints and Fractions are compared exactly, beside each other too: mask
    1 scoring 10^-10 where mask 2 scores 0, or 10^17 + 1 where mask 2
    scores 10^17 (equal as floats), once passed as one orbit value."""
    group = cyclic_group(FiniteAlphabet.of_size(3))
    b = 10 ** 17
    for values in ([F(1, 10 ** 10), 0, 1, 0, 1, 1], [b + 1, b, b + 5, b, b + 5, b + 5]):
        with pytest.raises(ValueError, match="differ within a subset orbit"):
            put_transitive_closed_form(values, group, F(2))
    assert not put_solver.constant_on_orbits([0, F(1, 10 ** 10), 0, 0, 0, 0],
                                             group.subset_orbits)


# -- samplers -----------------------------------------------------------------


def test_random_polytope_point_valid():
    rng = random.Random(0)
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(3), F(2))
    for _ in range(50):
        c = random_polytope_point(rng, vertices)
        assert in_weight_polytope(c)


def test_random_private_channel_is_ldp():
    rng = random.Random(1)
    t = F(2)
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(3), t)
    for _ in range(40):
        q = random_private_channel(rng, vertices)
        assert is_ldp(q, t)


def test_random_post_processing_is_stochastic():
    rng = random.Random(2)
    q = Channel.build([0, 1], [0, 1], [["3/4", "1/4"], ["1/4", "3/4"]])
    for _ in range(20):
        w = random_post_processing(rng, q)
        composed_cols = [sum(col) for col in zip(*w.rows)]
        assert all(s == 1 for s in composed_cols)


def test_samplers_deterministic_per_seed():
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(3), F(2))
    a = random_private_channel(random.Random(42), vertices)
    b = random_private_channel(random.Random(42), vertices)
    assert a.rows == b.rows


def test_random_counts_draw_as_randint():
    """Each count is randint(0, 9), drawn inline: the same values and the
    same generator state after, the all-zero fix-up included (n = 1
    meets it once in ten draws)."""
    for n in (1, 2, 5, 16):
        rng, rng2 = random.Random(n), random.Random(n)
        fixed = 0
        for _ in range(300):
            expected = [rng2.randint(0, 9) for _ in range(n)]
            if not any(expected):
                fixed += 1
                expected[rng2.randrange(n)] = 1
            assert _random_counts(rng, n) == expected
            assert rng.getstate() == rng2.getstate()
        if n == 1:
            assert fixed > 0


SAMPLER_CASES = st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.sampled_from([2, 3, 4, 5]),
                          st.sampled_from(["3/2", "2", "7/3", "5"]))


def live_reference_sample(rng: random.Random, vertices) -> Channel:
    """The reference sampler's channel, its maximal draw without the zero
    rows: that draw's letters are all the subset masks, where a
    post-processed draw's are 0 .. n_out - 1."""
    q = random_private_channel_reference(rng, vertices)
    if 0 in q.output_alphabet.letters:
        return q
    return without_zero_rows(q)


@given(SAMPLER_CASES)
@settings(max_examples=80, deadline=None)
def test_random_private_channel_matches_reference(case):
    """The integer sampler gives the reference sampler's channel (Fraction
    weights, extremal channel, composed post-processor), its maximal draw
    with the zero rows dropped, and leaves the generator where the
    reference does; t = 7/3 has q != 1."""
    seed, m, t = case
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), F(t))
    rng, rng2 = random.Random(seed), random.Random(seed)
    for _ in range(3):
        q = random_private_channel(rng, vertices)
        reference = live_reference_sample(rng2, vertices)
        assert q == reference
        assert channel_to_json(q) == channel_to_json(reference)
        assert rng.getstate() == rng2.getstate()


@given(SAMPLER_CASES)
@settings(max_examples=20, deadline=None)
def test_audit_matches_reference_sampler(case):
    """The audit reports the same worst sample, and on a failure the same
    sample index and channel JSON, with either sampler (the reference's
    maximal draws without their zero rows)."""
    seed, m, t = case
    alphabet = FiniteAlphabet.of_size(m)
    problem, prior = ht_problem(m, F(1, 3))

    def objective(q):
        return bayes_optimal_risk(problem, prior, q)

    def audit(baseline):
        return random_channel_audit(objective, alphabet, F(t), samples=12, seed=seed,
                                    baseline_value=baseline)

    def failure(baseline):
        with pytest.raises(AuditFailureError) as excinfo:
            audit(baseline)
        return excinfo.value.sample_index, excinfo.value.gap, excinfo.value.channel_json

    report = audit(F(0))
    vertices = enumerate_polytope_vertices(alphabet, F(t))
    values = sorted(objective(random_private_channel(_sample_rng(seed, i), vertices))
                    for i in range(12))
    # Above the optimum: some sample must beat it, not necessarily the first.
    fake = values[len(values) // 2]
    if fake == values[0]:
        fake = values[-1] + 1
    failed = failure(fake)
    with mock.patch.object(put_solver, "random_private_channel", live_reference_sample):
        assert audit(F(0)) == report
        assert failure(fake) == failed
    assert report.min_gap == values[0]


@pytest.mark.parametrize("m, t", [(3, "2"), (4, "3/2"), (4, "7/3")])
def test_audit_failure_channel_reads_back(m, t):
    """The failure dump read back with channel_from_json: its risk is the
    baseline plus the gap, and a maximal draw lists only the outputs that
    occur, whose canonical weights are the draw's mixed weights."""
    alphabet, t = FiniteAlphabet.of_size(m), F(t)
    problem, prior = ht_problem(m, F(1, 2))
    vertices = enumerate_polytope_vertices(alphabet, t)
    baseline = F(2)  # above every Bayes risk of this problem, so sample 0 fails
    maximal = 0
    for seed in range(12):
        with pytest.raises(AuditFailureError) as excinfo:
            random_channel_audit(lambda q: bayes_optimal_risk(problem, prior, q), alphabet, t,
                                 samples=3, seed=seed, baseline_value=baseline)
        failure = excinfo.value
        q = channel_from_json(failure.channel_json)
        assert bayes_optimal_risk(problem, prior, q) == baseline + failure.gap
        rng = _sample_rng(seed, failure.sample_index)
        point = random_polytope_point(rng, vertices)
        if rng.random() >= F(2, 3):
            maximal += 1
            assert q.output_alphabet.letters == point.support
            assert maximality_certificate(q, t)["canonical_weights"] == weights_to_json(point)
    assert 0 < maximal < 12


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([3, 4]),
       st.sampled_from(["3/2", "2", "5"]))
@settings(max_examples=40, deadline=None)
def test_integer_kernels_on_sampled_channels(seed, m, t):
    """compose and the Bayes risk equal their Fraction references on the
    audit's own channels: post-processed mixtures of polytope vertices."""
    rng = random.Random(seed)
    alphabet = FiniteAlphabet.of_size(m)
    q = random_post_processing(rng, random_private_channel(rng, enumerate_polytope_vertices(alphabet, t)))
    # Post-processing the identity channel gives the random post-processor itself.
    post = random_post_processing(rng, Channel.build(
        q.output_alphabet.letters, q.output_alphabet.letters,
        [[F(int(y == z)) for y in range(q.num_outputs)] for z in range(q.num_outputs)]))
    assert compose(post, q) == compose_reference(post, q)
    for problem, prior in (ht_problem(m, F(1, 3)), bayes_objective(m)[:2]):
        assert bayes_optimal_risk(problem, prior, q) == \
            bayes_optimal_risk_reference(problem, prior, q)[0]


# -- audit --------------------------------------------------------------------


def test_audit_passes_for_true_put():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    report = random_channel_audit(
        objective,
        FiniteAlphabet.of_size(m),
        t,
        samples=60,
        seed=7,
        baseline_value=F(1, 2),
    )
    assert report.min_gap >= 0


def test_audit_builds_no_fraction_rows():
    """The sampler and both audit objectives read the integer form: no
    sampled channel builds its Fraction rows."""
    m, t = 4, F(3, 2)
    problem, prior = ht_problem(m, F(1, 2))
    spec = CardioidSpec.build(m, F(1, 2), t)
    sampled = []

    def objective(q):
        sampled.append(q)
        return bayes_optimal_risk(problem, prior, q) + F(cardioid_bayes_risk(spec, q))

    random_channel_audit(objective, FiniteAlphabet.of_size(m), t, samples=40, seed=3,
                         baseline_value=F(0))
    assert len(sampled) == 40
    assert not any("rows" in vars(q) for q in sampled)


def test_audit_flags_fake_baseline():
    """Claiming a PUT below the true optimum must be caught."""
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    with pytest.raises(AuditFailureError) as excinfo:
        random_channel_audit(
            objective,
            FiniteAlphabet.of_size(m),
            t,
            samples=60,
            seed=7,
            baseline_value=F(3, 5),
        )
    assert excinfo.value.gap < 0
    assert excinfo.value.channel_json is not None


def test_audit_deterministic():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    kwargs = dict(samples=25, seed=123, baseline_value=F(1, 2))
    r1 = random_channel_audit(objective, FiniteAlphabet.of_size(m), t, **kwargs)
    r2 = random_channel_audit(objective, FiniteAlphabet.of_size(m), t, **kwargs)
    assert r1 == r2


def test_audit_report_names_worst_sample():
    """worst_sample is the first index at min_gap; redrawn alone from the
    seed, its channel gives that gap again."""
    m, t = 3, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    _, _, objective = bayes_objective(m)
    report = random_channel_audit(objective, alphabet, t, samples=40, seed=11,
                                  baseline_value=F(1, 2))
    vertices = enumerate_polytope_vertices(alphabet, t)
    gaps = [objective(random_private_channel(_sample_rng(11, i), vertices)) - F(1, 2)
            for i in range(40)]
    assert report.worst_sample == gaps.index(min(gaps))
    assert report.min_gap == gaps[report.worst_sample]
    empty = random_channel_audit(objective, alphabet, t, samples=0, seed=11,
                                 baseline_value=F(1, 2))
    assert empty.worst_sample is None


def test_audit_failure_names_replayable_sample():
    m, t = 3, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    _, _, objective = bayes_objective(m)
    with pytest.raises(AuditFailureError) as excinfo:
        random_channel_audit(objective, alphabet, t, samples=60, seed=7,
                             baseline_value=F(3, 5))
    i = excinfo.value.sample_index
    assert str(excinfo.value).startswith(f"sample {i} beat")
    vertices = enumerate_polytope_vertices(alphabet, t)
    q = random_private_channel(_sample_rng(7, i), vertices)
    assert objective(q) - F(3, 5) == excinfo.value.gap
    assert channel_to_json(q) == excinfo.value.channel_json
    assert all(objective(random_private_channel(_sample_rng(7, j), vertices)) >= F(3, 5)
               for j in range(i))


@pytest.mark.parametrize("tolerance,baseline", [
    (-1, "optimum"), (F(-1, 100), "optimum"), (-0.5, "optimum"),
    (float("nan"), F(10)), (float("inf"), F(10)), (float("-inf"), "optimum")])
def test_audit_refuses_negative_or_non_finite_tolerance(tolerance, baseline):
    """A negative tolerance failed a true optimum (ht, m = 3, t = 2,
    gamma = 1), and a nan one passed a baseline above every sample with
    a negative min_gap; both raise before any sample is drawn."""
    m, t, gamma = 3, F(2), F(1)
    problem, prior = ht_problem(m, gamma)
    if baseline == "optimum":
        baseline = ht_put_closed_form(m, gamma, t)
    with pytest.raises(ValueError, match="tolerance"):
        random_channel_audit(lambda q: bayes_optimal_risk(problem, prior, q),
                             FiniteAlphabet.of_size(m), t, samples=20, seed=0,
                             baseline_value=baseline, tolerance=tolerance)


def test_audit_zero_samples():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    report = random_channel_audit(
        objective, FiniteAlphabet.of_size(m), t, samples=0, seed=1, baseline_value=F(1, 2)
    )
    assert report.min_gap is None


# -- spot checks of a risk's properties ---------------------------------------


def test_spot_check_accepts_bayes_traits():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    spot_check_traits(
        objective,
        FiniteAlphabet.of_size(m),
        t,
        BAYES_TRAITS,
        group=symmetric_group(FiniteAlphabet.of_size(m)),
        rng=random.Random(5),
    )


def test_spot_check_rejects_false_affinity():
    """Minimax declared direct-sum affine must fail the spot check."""
    m, t = 3, F(2)
    p, _, _ = bayes_objective(m)

    def mm_objective(channel: Channel):
        from ldpput.decision import minimax_risk

        return minimax_risk(p, channel)

    bad = RiskTraits(direct_sum_affine=True, concave=False)
    with pytest.raises(ObjectiveMismatchError):
        spot_check_traits(
            mm_objective,
            FiniteAlphabet.of_size(m),
            t,
            bad,
            rng=random.Random(3),
            trials=8,
        )
