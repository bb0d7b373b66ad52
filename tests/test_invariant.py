"""Tests for the group-collapsed weight polytope and invariant channels."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from ldpput.channels import is_ldp
from ldpput.errors import DimensionCapError, NotTransitiveError
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
    input_orbits,
    orbit_coefficients,
    staircase_row,
    subset_orbits,
    weight_polytope,
)
from ldpput.put_solver import put_by_lp
from oracles import (
    BadSubsetSizeError,
    apply_group_element,
    canonical_weight,
    equivalent,
    invariant_output_action,
    is_maximal,
    lift_weights,
    make_weight_vector,
    pure_orbit_weights,
    ss_mechanism,
    symmetrize,
    transitive_vertex_weight,
)

X3 = FiniteAlphabet.of_size(3)
X4 = FiniteAlphabet.of_size(4)
F = Fraction


# -- orbit bookkeeping --------------------------------------------------------


def test_input_orbits_transitive():
    assert input_orbits(symmetric_group(X3)) == ((0, 1, 2),)
    assert input_orbits(cyclic_group(X4)) == ((0, 1, 2, 3),)


def test_input_orbits_trivial_group():
    assert input_orbits(trivial_group(X3)) == ((0,), (1,), (2,))


def test_subset_orbits_sym3():
    orbs = subset_orbits(symmetric_group(X3))
    assert [o.masks for o in orbs] == [(1, 2, 4), (3, 5, 6)]
    assert [o.representative for o in orbs] == [1, 3]
    assert [o.subset_size for o in orbs] == [1, 2]


def test_subset_orbits_z4():
    orbs = subset_orbits(cyclic_group(X4))
    assert [(o.representative, o.size, o.subset_size) for o in orbs] == [
        (1, 4, 1),
        (3, 4, 2),
        (5, 2, 2),
        (7, 4, 3),
    ]


def test_orbit_coefficients_sym3_pairs():
    group = symmetric_group(X3)
    letters = input_orbits(group)[0]
    k2 = subset_orbits(group)[1]
    oc = orbit_coefficients(group, letters, k2, F(2))
    # each letter lies in comb(m-1, k-1) = 2 of the three pairs
    assert oc.incidence == 2
    assert oc.orbit_size == 3
    assert oc.column_sum == F(2) * 2 + (3 - 2)


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_orbit_coefficients_symmetric_incidence(m, k):
    group = symmetric_group(FiniteAlphabet.of_size(m))
    letters = input_orbits(group)[0]
    orbit = next(o for o in subset_orbits(group) if o.subset_size == k)
    oc = orbit_coefficients(group, letters, orbit, F(3))
    assert oc.incidence == comb(m - 1, k - 1)
    assert oc.orbit_size == comb(m, k)


# -- polytope membership and lifting ------------------------------------------


def test_make_orbit_weights_validates_length():
    with pytest.raises(ValueError):
        make_weight_vector(symmetric_group(X3), F(2), [F(1, 4)])


def test_in_invariant_polytope_sym3():
    group = symmetric_group(X3)
    assert in_weight_polytope(make_weight_vector(group, F(2), [F(1, 4), 0]))
    assert in_weight_polytope(make_weight_vector(group, F(2), [0, F(1, 5)]))
    assert not in_weight_polytope(make_weight_vector(group, F(2), [F(1, 4), F(1, 5)]))


def test_lift_weights_spreads_orbit_values():
    group = symmetric_group(X3)
    w = make_weight_vector(group, F(2), [F(1, 4), 0])
    lifted = lift_weights(w)
    assert lifted.values == (F(1, 4), F(1, 4), F(0), F(1, 4), F(0), F(0))


@pytest.mark.parametrize("values", [[F(1, 4), 0], [0, F(1, 5)], [F(1, 8), F(1, 10)]])
def test_lift_membership_consistency(values):
    group = symmetric_group(X3)
    w = make_weight_vector(group, F(2), values)
    assert in_weight_polytope(w) == in_weight_polytope(lift_weights(w))


def test_lift_membership_consistency_z4():
    group = cyclic_group(X4)
    t = F(2)
    # mix two orbits: adjacent pairs at half a vertex weight each plus triples
    for values in ([F(1, 5), 0, 0, 0], [0, F(1, 12), F(1, 6), 0], [0, 0, 0, F(1, 7)]):
        w = make_weight_vector(group, t, values)
        assert in_weight_polytope(w) == in_weight_polytope(lift_weights(w))


# -- transitive closed form ---------------------------------------------------


def test_transitive_vertex_weight_z4():
    group = cyclic_group(X4)
    t = F(2)
    expected = {1: F(1, 5), 3: F(1, 6), 5: F(1, 3), 7: F(1, 7)}
    for orbit in subset_orbits(group):
        assert transitive_vertex_weight(group, orbit, t) == expected[orbit.representative]


def test_transitive_vertex_weight_formula():
    group = symmetric_group(X4)
    t = F(5, 2)
    for orbit in subset_orbits(group):
        k = orbit.subset_size
        expected = F(4) / (orbit.size * (k * t + 4 - k))
        assert transitive_vertex_weight(group, orbit, t) == expected


def test_transitive_vertex_weight_rejects_intransitive():
    group = trivial_group(X3)
    orbit = subset_orbits(group)[0]
    with pytest.raises(NotTransitiveError):
        transitive_vertex_weight(group, orbit, F(2))


def test_pure_orbit_weights_are_vertices():
    group = cyclic_group(X4)
    t = F(2)
    for i, orbit in enumerate(subset_orbits(group)):
        w = pure_orbit_weights(group, i, t)
        assert in_weight_polytope(w)
        assert w.values[i] == transitive_vertex_weight(group, orbit, t)
        assert all(v == 0 for j, v in enumerate(w.values) if j != i)


# -- invariant vertex enumeration ---------------------------------------------


def test_invariant_vertices_sym3_frozen():
    verts = enumerate_invariant_vertices(symmetric_group(X3), F(2))
    assert sorted(v.values for v in verts) == [(F(0), F(1, 5)), (F(1, 4), F(0))]


def test_invariant_vertices_z4_frozen():
    verts = enumerate_invariant_vertices(cyclic_group(X4), F(2))
    assert sorted(v.values for v in verts) == [
        (F(0), F(0), F(0), F(1, 7)),
        (F(0), F(0), F(1, 3), F(0)),
        (F(0), F(1, 6), F(0), F(0)),
        (F(1, 5), F(0), F(0), F(0)),
    ]


def test_invariant_vertices_t1_rank_deficient_frozen():
    """At t = 1 the three letter-orbit equalities of <(0 1)> on 4 letters
    have rank 1: every vertex is one orbit weighted 1 / (orbit size)."""
    verts = enumerate_invariant_vertices(generate_group(X4, [(1, 0, 2, 3)]), F(1))
    # (orbit index, weight), in the order the vertices are listed
    expected = [(9, F(1, 2)), (8, F(1)), (7, F(1)), (6, F(1, 2)), (5, F(1)),
                (4, F(1)), (3, F(1, 2)), (2, F(1)), (1, F(1)), (0, F(1, 2))]
    assert [v.values for v in verts] == [
        tuple(w if j == i else F(0) for j in range(10)) for i, w in expected]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_transitive_vertices_are_exactly_pure_orbits(m):
    """For transitive groups every reduced vertex is a single-orbit point."""
    group = cyclic_group(FiniteAlphabet.of_size(m))
    t = F(3)
    verts = enumerate_invariant_vertices(group, t)
    orbs = subset_orbits(group)
    assert len(verts) == len(orbs)
    for v in verts:
        support = [i for i, x in enumerate(v.values) if x != 0]
        assert len(support) == 1
        i = support[0]
        assert v.values[i] == transitive_vertex_weight(group, orbs[i], t)


TRIVIAL_CASES = [(m, t) for m in (2, 3, 4) for t in (F(3, 2), F(2), F(3), F(5))]


@pytest.mark.parametrize("m,t", TRIVIAL_CASES,
                         ids=[f"m{m}-t{t}".replace("/", "_") for m, t in TRIVIAL_CASES])
def test_trivial_group_reduction_matches_full(m, t):
    """Under the trivial group the reduced polytope is the full polytope:
    the staircase equalities, the vertices in order, their channels row
    for row, and the LP optimum."""
    alphabet = FiniteAlphabet.of_size(m)
    group = trivial_group(alphabet)
    masks = all_subset_masks(m)
    polytope = weight_polytope(group, t)
    assert polytope.rows == tuple(tuple(t if mask >> x & 1 else 1 for mask in masks)
                                  for x in range(m))

    reduced = enumerate_invariant_vertices(group, t)
    full = enumerate_polytope_vertices(alphabet, t)
    assert [lift_weights(v).values for v in reduced] == [v.values for v in full]
    for r, f in zip(reduced, full):
        q = extremal_channel(r)
        assert q.output_alphabet.letters == masks
        assert q.rows == tuple(tuple(f.weight(mask) * s for s in staircase_row(mask, m, t))
                               for mask in masks)
        assert q.rows == extremal_channel(f).rows

    u = [F((7 * mask) % 11 - 5, 1 + mask % 3) for mask in masks]
    on_trivial = put_by_lp(u, alphabet, t, group=group)
    on_full = put_by_lp(u, alphabet, t)
    assert on_trivial.value == on_full.value
    assert on_trivial.argmin_weights.values == on_full.argmin_weights.values
    assert on_trivial.argmin_channel.rows == on_full.argmin_channel.rows
    assert on_trivial.method == on_full.method == "lp"


def test_invariant_enumeration_cap():
    # The trivial group on 6 letters leaves C(62, 6) candidate supports.
    group = trivial_group(FiniteAlphabet.of_size(6))
    with pytest.raises(DimensionCapError, match=r"C\(62,6\)"):
        enumerate_invariant_vertices(group, F(2))


# -- invariant channels -------------------------------------------------------


def test_invariant_extremal_channel_matches_lift():
    group = symmetric_group(X3)
    t = F(2)
    w = make_weight_vector(group, t, [F(1, 4), 0])
    q = extremal_channel(w)
    assert equivalent(q, extremal_channel(lift_weights(w)))


def test_invariant_channel_is_maximal_and_invariant():
    group = cyclic_group(X4)
    t = F(2)
    for i in range(len(subset_orbits(group))):
        w = pure_orbit_weights(group, i, t)
        q = extremal_channel(w)
        assert is_ldp(q, t)
        assert is_maximal(q, t)
        action = invariant_output_action(group, q)
        for g in group.elements:
            assert apply_group_element(g, action, q).rows == q.rows


def test_invariant_channel_symmetrize_equivalent():
    group = symmetric_group(X3)
    t = F(2)
    w = make_weight_vector(group, t, [0, F(1, 5)])
    q = extremal_channel(w)
    assert equivalent(symmetrize(group, q), q)


def test_invariant_bijection_roundtrip():
    group = cyclic_group(X4)
    t = F(3)
    for i in range(4):
        w = pure_orbit_weights(group, i, t)
        q = extremal_channel(w)
        assert canonical_weight(q, t).values == lift_weights(w).values


# -- subset selection mechanism -----------------------------------------------


def test_ss_mechanism_m4_k2_frozen():
    q = ss_mechanism(X4, 2, F(2))
    # weight 4 / (6 * 6) = 1/9; entries t/9 inside the subset, 1/9 outside
    assert q.rows[0] == (F(2, 9), F(2, 9), F(1, 9), F(1, 9))
    assert len(q.rows) == comb(4, 2)
    assert is_maximal(q, F(2))


def test_ss_mechanism_m2_is_rr():
    q = ss_mechanism(FiniteAlphabet.of_size(2), 1, F(3))
    assert sorted(q.rows) == [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]


def test_ss_mechanism_equals_pure_symmetric_orbit():
    group = symmetric_group(X3)
    t = F(2)
    w = make_weight_vector(group, t, [F(1, 4), 0])
    assert equivalent(ss_mechanism(X3, 1, t), extremal_channel(w))


def test_ss_mechanism_rejects_bad_k():
    with pytest.raises(BadSubsetSizeError):
        ss_mechanism(X3, 0, F(2))
    with pytest.raises(BadSubsetSizeError):
        ss_mechanism(X3, 3, F(2))
