"""Tests for the PUT minimization paths, certificates, and the random audit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ldpput.channels import Channel, is_ldp
from ldpput.decision import DecisionProblem, Prior, bayes_optimal_risk, check_equalizer
from ldpput.errors import AttestationFailedError, AuditFailureError
from ldpput.groups import FiniteAlphabet, cyclic_group, symmetric_group
from ldpput.ldp_geometry import enumerate_polytope_vertices, in_weight_polytope
from ldpput.put_solver import (
    BAYES_TRAITS,
    CERT_BOUND,
    CERT_EQUALIZER,
    CERT_EXACT,
    MINIMAX_TRAITS,
    ObjectiveTraits,
    put_by_lp,
    put_by_vertex_enumeration,
    put_transitive_closed_form,
    random_channel_audit,
    random_polytope_point,
    random_post_processing,
    random_private_channel,
    spot_check_traits,
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
    _, _, objective = bayes_objective(m)
    alphabet = FiniteAlphabet.of_size(m)
    full = put_by_vertex_enumeration(objective, alphabet, t, traits=BAYES_TRAITS)
    grouped = put_by_vertex_enumeration(
        objective, alphabet, t, group=symmetric_group(alphabet), traits=BAYES_TRAITS
    )
    assert grouped.method == "vertex_enumeration_grouped"
    assert grouped.value == full.value
    assert grouped.certificate == CERT_EXACT


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


def test_equalizer_promotes_minimax_bound():
    m, t = 3, F(2)
    p, prior, objective = bayes_objective(m)

    def mm_objective(channel: Channel):
        from ldpput.decision import minimax_risk

        return minimax_risk(p, channel)[0]

    def equalizer(channel: Channel) -> bool:
        return check_equalizer(p, prior, channel)

    res = put_by_vertex_enumeration(
        mm_objective,
        FiniteAlphabet.of_size(m),
        t,
        traits=MINIMAX_TRAITS,
        equalizer=equalizer,
    )
    assert res.certificate == CERT_EQUALIZER
    assert res.value == F(1, 2)


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
    from ldpput.decision import bayes_linear_coefficients

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
    from ldpput.decision import bayes_linear_coefficients

    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    plain = put_by_lp(coeffs, alphabet, t)
    grouped = put_by_lp(coeffs, alphabet, t, group=symmetric_group(alphabet))
    assert grouped.method == "lp_grouped"
    assert grouped.value == plain.value


def test_lp_exactifies_float_coefficients():
    # float coefficients are turned into exact rationals before solving
    alphabet = FiniteAlphabet.of_size(2)
    res = put_by_lp([0.25, 0.75], alphabet, F(3))
    assert isinstance(res.value, Fraction)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("t", [F(3, 2), F(2), F(5)])
def test_lp_vs_vertex_agreement_grid(m, t):
    p, prior, objective = bayes_objective(m)
    from ldpput.decision import bayes_linear_coefficients

    coeffs = bayes_linear_coefficients(p, prior, t)
    alphabet = FiniteAlphabet.of_size(m)
    assert put_by_lp(coeffs, alphabet, t).value == put_by_vertex_enumeration(
        objective, alphabet, t, traits=BAYES_TRAITS
    ).value


# -- transitive closed form ---------------------------------------------------


def test_transitive_closed_form_matches_enumeration():
    m, t = 4, F(2)
    p, prior, objective = bayes_objective(m)
    group = symmetric_group(FiniteAlphabet.of_size(m))

    from ldpput.invariant import pure_orbit_weights
    from ldpput.ldp_geometry import extremal_channel, subset_orbits

    def per_orbit(orbit, weight):
        idx = subset_orbits(group).index(orbit)
        return objective(extremal_channel(pure_orbit_weights(group, idx, t)))

    closed = put_transitive_closed_form(per_orbit, group, t, traits=BAYES_TRAITS)
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
    res = put_transitive_closed_form(lambda orbit, w: F(orbit.subset_size), group, F(2),
                                     traits=BAYES_TRAITS)
    assert len(res.table) > 1
    assert carriers.count((1 << m) - 2) == 1


def test_transitive_closed_form_rejects_intransitive():
    from ldpput.errors import NotTransitiveError
    from ldpput.groups import trivial_group

    with pytest.raises(NotTransitiveError):
        put_transitive_closed_form(
            lambda o, w: F(1),
            trivial_group(FiniteAlphabet.of_size(3)),
            F(2),
            traits=BAYES_TRAITS,
        )


def test_transitive_closed_form_table_is_per_orbit():
    group = cyclic_group(FiniteAlphabet.of_size(4))
    res = put_transitive_closed_form(
        lambda orbit, w: F(orbit.subset_size), group, F(2), traits=BAYES_TRAITS
    )
    assert len(res.table) == 4
    assert res.value == 1  # singleton orbit has k = 1


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


def test_vertex_enumeration_runs_spot_checks_when_given_rng():
    m, t = 3, F(2)
    _, _, objective = bayes_objective(m)
    res = put_by_vertex_enumeration(
        objective,
        FiniteAlphabet.of_size(m),
        t,
        traits=BAYES_TRAITS,
        spot_check_rng=random.Random(9),
    )
    assert res.value == F(1, 2)
