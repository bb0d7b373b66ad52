"""Tests for the PUT minimization paths, certificates, and the random audit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput.channels import Channel, compose, is_ldp
from ldpput.applications import ht_problem, ht_subset_risk
from ldpput.decision import (
    DecisionProblem,
    Prior,
    bayes_linear_coefficients,
    bayes_optimal_risk,
    mutual_information,
    mutual_information_linear_coefficients,
)
from ldpput.errors import AttestationFailedError, AuditFailureError
from ldpput.groups import FiniteAlphabet, all_subset_masks, cyclic_group, symmetric_group
from ldpput.ldp_geometry import enumerate_polytope_vertices, in_weight_polytope
from ldpput.put_solver import (
    BAYES_TRAITS,
    CERT_BOUND,
    CERT_EXACT,
    ObjectiveTraits,
    _sample_rng,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
    random_polytope_point,
    random_post_processing,
    random_private_channel,
)
from ldpput.serialize import channel_to_json
from oracles import (
    bayes_optimal_risk_reference,
    compose_reference,
    spot_check_traits,
    subset_size,
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
        return bayes_optimal_risk(p, prior, channel)[0]

    return p, prior, objective


# -- vertex enumeration path --------------------------------------------------


def test_vertex_enumeration_m3_guessing():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t, traits=BAYES_TRAITS)
    assert res.value == F(1, 2)
    assert res.method == "vertex_enumeration"
    assert res.certificate == CERT_EXACT
    assert in_weight_polytope(res.argmin_weights)
    assert objective(res.argmin_channel) == res.value


def test_vertex_enumeration_table_covers_all_vertices():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t, traits=BAYES_TRAITS)
    assert len(res.table) == len(enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t))
    assert min(v for _, v in res.table) == res.value


def test_vertex_enumeration_grouped_matches_full():
    m, t = 4, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    full = put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS)
    grouped = put_by_vertex_enumeration(
        objective, alphabet, t, group=symmetric_group(alphabet), traits=BAYES_TRAITS,
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
        return bayes_optimal_risk(p, prior, channel)[0]

    sym = symmetric_group(alphabet)
    for form in (u, None):
        res = put_by_vertex_enumeration(objective, alphabet, t, group=sym,
                                        traits=BAYES_TRAITS, coefficients=form)
        assert (res.value, res.certificate) == (F(189, 143), CERT_BOUND)
    full = put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS,
                                     coefficients=u)
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
    """Scoring by u.w picks the vertex, channel and table the direct
    objective picks, on the full and the S_m-collapsed polytope."""
    p, prior, t = case
    alphabet = p.input_alphabet
    group = symmetric_group(alphabet) if grouped else None

    def objective(channel):
        return bayes_optimal_risk(p, prior, channel)[0]

    direct = put_by_vertex_enumeration(objective, alphabet, t, group=group,
                                       traits=BAYES_TRAITS)
    linear = put_by_vertex_enumeration(objective, alphabet, t, group=group,
                                       traits=BAYES_TRAITS,
                                       coefficients=bayes_linear_coefficients(p, prior, t))
    assert linear.value == direct.value
    assert linear.argmin_weights == direct.argmin_weights
    assert linear.argmin_channel == direct.argmin_channel
    assert [v for _, v in linear.table] == [v for _, v in direct.table]
    assert [w for w, _ in linear.table] == [w for w, _ in direct.table]


def test_wrong_linear_form_fails_the_argmin_check():
    """Lowering u on a subset the argmin uses keeps the argmin there and
    moves its score off the objective's value."""
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    u = bayes_linear_coefficients(p, prior, t)
    best = put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS,
                                     coefficients=u)
    wrong = list(u)
    wrong[best.argmin_weights.support[0] - 1] -= F(1, 7)
    with pytest.raises(AttestationFailedError):
        put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS,
                                  coefficients=wrong)


def test_float_linear_form_is_checked_within_tolerance():
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    u = [float(c) for c in bayes_linear_coefficients(p, prior, t)]
    res = put_by_vertex_enumeration(lambda q: float(objective(q)), alphabet, t,
                                    traits=BAYES_TRAITS, coefficients=u)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    u[res.argmin_weights.support[0] - 1] -= 1e-6
    with pytest.raises(AttestationFailedError):
        put_by_vertex_enumeration(lambda q: float(objective(q)), alphabet, t,
                                  traits=BAYES_TRAITS, coefficients=u)


def test_linear_form_length_is_checked():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    with pytest.raises(ValueError):
        put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t,
                                  traits=BAYES_TRAITS, coefficients=[F(1)] * 5)


def test_grouped_path_requires_invariance_attestation():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    bad = ObjectiveTraits(concave=True, group_invariant=False)
    with pytest.raises(ValueError):
        put_by_vertex_enumeration(
            objective, alphabet, t, group=symmetric_group(alphabet), traits=bad
        )


def test_non_concave_objective_gets_bound_certificate():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(
        objective,
        FiniteAlphabet.of_size(m),
        t,
        traits=ObjectiveTraits(direct_sum_quasiconvex=True),
    )
    assert res.certificate == CERT_BOUND


def test_exact_certificate_needs_data_processing():
    """A vertex optimum is the optimum over all private channels only when
    post-processing cannot lower the value: without that, a bound."""
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(
        objective,
        FiniteAlphabet.of_size(m),
        t,
        traits=ObjectiveTraits(data_processing=False, concave=True),
    )
    assert res.certificate == CERT_BOUND


def test_argmin_tie_break_is_first_index():
    # constant objective: every vertex ties; the first enumerated wins
    m, t = 3, F(2)
    alphabet = FiniteAlphabet.of_size(m)
    res = put_by_vertex_enumeration(
        lambda q: F(1), alphabet, t, traits=BAYES_TRAITS
    )
    first = enumerate_polytope_vertices(alphabet, t)[0]
    assert res.argmin_weights.values == first.values


# -- LP path ------------------------------------------------------------------


def test_lp_matches_vertex_enumeration_exactly():
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)
    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    lp = put_by_lp(coeffs, alphabet, t)
    ve = put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS)
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
                                                     traits=BAYES_TRAITS, coefficients=u),
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
    assert put_by_lp(coeffs, alphabet, t).value == put_by_vertex_enumeration(
        objective, alphabet, t, traits=BAYES_TRAITS
    ).value


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

    closed = put_transitive_closed_form(values, group, t, traits=BAYES_TRAITS)
    assert closed.method == "transitive_closed_form"
    full = put_by_vertex_enumeration(objective, FiniteAlphabet.of_size(m), t, traits=BAYES_TRAITS)
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
    res = put_transitive_closed_form(subset_sizes(m), group, F(2), traits=BAYES_TRAITS)
    assert len(res.table) > 1
    assert carriers.count((1 << m) - 2) == 1


def test_transitive_closed_form_rejects_intransitive():
    from ldpput.errors import NotTransitiveError
    from ldpput.groups import trivial_group

    with pytest.raises(NotTransitiveError):
        put_transitive_closed_form(
            [F(1)] * 6,
            trivial_group(FiniteAlphabet.of_size(3)),
            F(2),
            traits=BAYES_TRAITS,
        )


def test_transitive_closed_form_requires_invariance_attestation():
    """The same guard as the grouped sweep: no reduction without invariance."""
    group = cyclic_group(FiniteAlphabet.of_size(4))
    with pytest.raises(ValueError):
        put_transitive_closed_form(
            subset_sizes(4), group, F(2),
            traits=ObjectiveTraits(concave=True),
        )


def test_transitive_closed_form_table_is_per_orbit():
    group = cyclic_group(FiniteAlphabet.of_size(4))
    res = put_transitive_closed_form(subset_sizes(4), group, F(2), traits=BAYES_TRAITS)
    assert len(res.table) == 4
    assert res.value == 1  # singleton orbit has k = 1


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
        put_transitive_closed_form(values, symmetric_group(p.input_alphabet), t,
                                   traits=BAYES_TRAITS)


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
    closed = put_transitive_closed_form(values, group, t, traits=BAYES_TRAITS)
    sweep = put_by_vertex_enumeration(
        lambda q: bayes_optimal_risk(problem, prior, q)[0], alphabet, t, group=group,
        traits=BAYES_TRAITS, coefficients=u)
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
    base = put_transitive_closed_form(risks, group, t, traits=BAYES_TRAITS)
    # mask 2 = {1} shares the singleton orbit with its representative, mask 1
    for delta, accepted in ((1e-12, True), (1e-6, False)):
        nudged = list(risks)
        nudged[2 - 1] += delta
        if accepted:
            res = put_transitive_closed_form(nudged, group, t, traits=BAYES_TRAITS)
            assert (res.value, res.argmin_weights) == (base.value, base.argmin_weights)
        else:
            with pytest.raises(ValueError):
                put_transitive_closed_form(nudged, group, t, traits=BAYES_TRAITS)


def test_transitive_closed_form_value_count_is_checked():
    group = cyclic_group(FiniteAlphabet.of_size(4))
    with pytest.raises(ValueError, match="need 14"):
        put_transitive_closed_form(subset_sizes(4)[:-1], group, F(2), traits=BAYES_TRAITS)


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
                                      t, group=sym, traits=BAYES_TRAITS, coefficients=u)
    assert lp.certificate == sweep.certificate == CERT_EXACT
    assert float(lp.value) == pytest.approx(sweep.value, abs=1e-12)


# -- samplers -----------------------------------------------------------------


def test_random_polytope_point_valid():
    rng = random.Random(0)
    for _ in range(50):
        c = random_polytope_point(rng, FiniteAlphabet.of_size(3), F(2))
        assert in_weight_polytope(c)


def test_random_private_channel_is_ldp():
    rng = random.Random(1)
    t = F(2)
    for _ in range(40):
        q = random_private_channel(rng, FiniteAlphabet.of_size(3), t)
        assert is_ldp(q, t)


def test_random_post_processing_is_stochastic():
    rng = random.Random(2)
    q = Channel.build([0, 1], [0, 1], [["3/4", "1/4"], ["1/4", "3/4"]])
    for _ in range(20):
        w = random_post_processing(rng, q)
        composed_cols = [sum(col) for col in zip(*w.rows)]
        assert all(s == 1 for s in composed_cols)


def test_samplers_deterministic_per_seed():
    a = random_private_channel(random.Random(42), FiniteAlphabet.of_size(3), F(2))
    b = random_private_channel(random.Random(42), FiniteAlphabet.of_size(3), F(2))
    assert a.rows == b.rows


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([3, 4]),
       st.sampled_from(["3/2", "2", "5"]))
@settings(max_examples=40, deadline=None)
def test_integer_kernels_on_sampled_channels(seed, m, t):
    """compose and the Bayes risk equal their Fraction references on the
    audit's own channels: post-processed mixtures of polytope vertices."""
    rng = random.Random(seed)
    alphabet = FiniteAlphabet.of_size(m)
    q = random_post_processing(rng, random_private_channel(rng, alphabet, F(t)))
    # Post-processing the identity channel gives the random post-processor itself.
    post = random_post_processing(rng, Channel.build(
        q.output_alphabet.letters, q.output_alphabet.letters,
        [[F(int(y == z)) for y in range(q.num_outputs)] for z in range(q.num_outputs)]))
    assert compose(post, q) == compose_reference(post, q)
    for problem, prior in (ht_problem(m, F(1, 3)), bayes_objective(m)[:2]):
        assert bayes_optimal_risk(problem, prior, q) == \
            bayes_optimal_risk_reference(problem, prior, q)


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
    assert report.passed
    assert report.samples == 60
    assert report.min_gap >= 0


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
    gaps = [objective(random_private_channel(_sample_rng(11, i), alphabet, t)) - F(1, 2)
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
    q = random_private_channel(_sample_rng(7, i), alphabet, t)
    assert objective(q) - F(3, 5) == excinfo.value.gap
    assert channel_to_json(q) == excinfo.value.channel_json
    assert all(objective(random_private_channel(_sample_rng(7, j), alphabet, t)) >= F(3, 5)
               for j in range(i))


def test_audit_zero_samples():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    report = random_channel_audit(
        objective, FiniteAlphabet.of_size(m), t, samples=0, seed=1, baseline_value=F(1, 2)
    )
    assert report.passed
    assert report.samples == 0
    assert report.min_gap is None


# -- trait spot checks --------------------------------------------------------


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

        return minimax_risk(p, channel)[0]

    bad = ObjectiveTraits(direct_sum_affine=True, concave=False)
    with pytest.raises(AttestationFailedError):
        spot_check_traits(
            mm_objective,
            FiniteAlphabet.of_size(m),
            t,
            bad,
            rng=random.Random(3),
            trials=8,
        )
