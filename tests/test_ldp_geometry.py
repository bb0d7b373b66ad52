"""Tests for the staircase geometry: cone, weight polytope, maximal channels."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput import ldp_geometry, linalg
from ldpput.channels import Channel, is_ldp
from ldpput.errors import DimensionCapError, NotLdpError, PolytopeViolationError
from ldpput.groups import FiniteAlphabet, all_subset_masks, cyclic_group, symmetric_group
from ldpput.invariant import CANDIDATE_CAP
from ldpput.ldp_geometry import (
    WeightVector,
    enumerate_polytope_vertices,
    extremal_channel,
    full_polytope,
    in_weight_polytope,
    polytope_vertices,
    ray_subsets,
    staircase_row,
    subset_column_symmetries,
    weight_polytope,
)
from ldpput.linalg import enumerate_basic_feasible
from ldpput.put_solver import random_private_channel
from oracles import (
    NotInConeError,
    NotMaximalError,
    ZeroVectorError,
    basic_feasible_reference,
    canonical_weight,
    cone_constraint_matrix,
    dominates,
    dominating_maximal,
    equivalent,
    extremal_channel_reference,
    fraction_rows,
    fraction_vertices,
    in_cone,
    integer_system,
    is_extreme_direction,
    is_maximal,
    kernel_rank_check,
    make_weight_vector,
    polytope_vertices_reference,
    random_polytope_point,
    ray_subsets_reference,
    staircase_matrix,
    subset_column_symmetries_reference,
    subset_size,
)

X2 = FiniteAlphabet.of_size(2)
X3 = FiniteAlphabet.of_size(3)
X4 = FiniteAlphabet.of_size(4)


def F(*args) -> Fraction:
    return Fraction(*args)


# -- staircase matrix ---------------------------------------------------------


def test_staircase_m2_t3():
    s = staircase_matrix(X2, F(3))
    assert s.rows == ((F(3), F(1)), (F(1), F(3)))


def test_staircase_m3_row_for_pair():
    t = F(2)
    s = staircase_matrix(X3, t)
    assert len(s.rows) == 6
    # mask 3 = {0, 1}
    assert s.rows[2] == (t, t, F(1))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_staircase_row_sums(m):
    t = F(7, 2)
    s = staircase_matrix(FiniteAlphabet.of_size(m), t)
    for mask, row in zip(all_subset_masks(m), s.rows):
        k = subset_size(mask)
        assert sum(row) == k * t + (m - k)
        assert row.count(t) == k


def test_staircase_rows_have_both_values():
    s = staircase_matrix(X4, F(2))
    for row in s.rows:
        assert F(1) in row and F(2) in row


# -- weight polytope ----------------------------------------------------------


def test_weight_polytope_m2():
    t = F(3)
    c = make_weight_vector(X2, t, [F(1, t + 1), F(1, t + 1)])
    assert in_weight_polytope(c)


def test_weight_polytope_rejects_zero():
    c = make_weight_vector(X2, F(3), [0, 0])
    assert not in_weight_polytope(c)


def test_weight_polytope_m3_singletons():
    # 1/4 on each singleton: column sums 2/4 + 1/4 + 1/4 = 1 at t=2
    c = make_weight_vector(X3, F(2), ["1/4", "1/4", 0, "1/4", 0, 0])
    assert in_weight_polytope(c)


def test_weight_polytope_m3_wrong_scale():
    c = make_weight_vector(X3, F(2), ["1/3", "1/3", 0, "1/3", 0, 0])
    assert not in_weight_polytope(c)


# -- extremal channels --------------------------------------------------------


def test_extremal_channel_m2_is_rr():
    t = F(3)
    c = make_weight_vector(X2, t, [F(1, 4), F(1, 4)])
    q = extremal_channel(c)
    assert q.rows == ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    assert q.output_alphabet.letters == (1, 2)


def test_extremal_channel_m3_subset_selection():
    c = make_weight_vector(X3, F(2), ["1/4", "1/4", 0, "1/4", 0, 0])
    q = extremal_channel(c)
    # one output per subset of nonzero weight, ascending: no zero row
    assert q.output_alphabet.letters == (1, 2, 4)
    assert q.rows == (
        (F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(1, 4), F(1, 4), F(1, 2)),
    )


def test_extremal_channel_rejects_non_member():
    c = make_weight_vector(X2, F(3), [F(1, 2), F(1, 2)])
    with pytest.raises(PolytopeViolationError):
        extremal_channel(c)


def test_extremal_channel_rows_are_extreme():
    t = F(2)
    for v in enumerate_polytope_vertices(X3, t):
        q = extremal_channel(v)
        for mask, row in zip(q.output_alphabet.letters, q.rows):
            assert is_extreme_direction(row, X3, t) == mask


def test_extremal_channel_is_ldp_and_maximal():
    t = F(2)
    for v in enumerate_polytope_vertices(X3, t):
        q = extremal_channel(v)
        assert is_ldp(q, t)
        assert is_maximal(q, t)


# -- cone and extreme directions ----------------------------------------------


def test_cone_constraint_matrix_shape():
    c = cone_constraint_matrix(X3, F(2))
    assert len(c.pairs) == 3 * 2


def test_in_cone():
    t = F(2)
    assert in_cone([t, F(1), F(1)], t)
    assert in_cone([F(1), F(1), F(1)], t)
    assert not in_cone([F(4), F(1), F(1)], t)  # 4 > t*1
    assert not in_cone([F(1), F(-1), F(1)], t)


def test_is_extreme_direction_singleton():
    t = F(2)
    assert is_extreme_direction([t, F(1), F(1)], X3, t) == 1
    assert is_extreme_direction([F(1), t, F(1)], X3, t) == 2
    assert is_extreme_direction([t, t, F(1)], X3, t) == 3


def test_is_extreme_direction_scaling_invariant():
    t = F(2)
    assert is_extreme_direction([t / 7, F(1, 7), F(1, 7)], X3, t) == 1


def test_is_extreme_direction_constant_vector():
    t = F(2)
    assert is_extreme_direction([F(1), F(1), F(1)], X3, t) is None


def test_is_extreme_direction_three_values():
    t = F(2)
    assert is_extreme_direction([t, (t + 1) / 2, F(1)], X3, t) is None


def test_is_extreme_direction_zero_vector():
    with pytest.raises(ZeroVectorError):
        is_extreme_direction([F(0), F(0)], X2, F(3))


@pytest.mark.parametrize("t", [F(1), F(2)])
def test_is_extreme_direction_refuses_one_letter(t):
    """One letter has no nonempty proper subset, so no ray has one: mask 1
    was once returned for [1] at t = 1."""
    with pytest.raises(ValueError, match="at least two input letters"):
        is_extreme_direction([F(1)], FiniteAlphabet.of_size(1), t)


def test_is_extreme_direction_degenerate_t1():
    # at t = 1 every positive constant vector spans the only ray
    assert is_extreme_direction([F(2), F(2), F(2)], X3, F(1)) == 1
    assert is_extreme_direction([F(2), F(1), F(1)], X3, F(1)) is None


def test_kernel_rank_check_examples():
    t = F(2)
    assert kernel_rank_check([t, F(1), F(1)], X3, t)
    assert not kernel_rank_check([F(1), F(1), F(1)], X3, t)
    assert not kernel_rank_check([t, F(3, 2), F(1)], X3, t)


def test_kernel_rank_check_requires_cone_membership():
    with pytest.raises(NotInConeError):
        kernel_rank_check([F(4), F(1), F(1)], X3, F(2))
    with pytest.raises(ZeroVectorError):
        kernel_rank_check([F(0), F(0), F(0)], X3, F(2))


def test_oracles_agree_on_grid():
    """Pattern-match and active-constraint-kernel classifications coincide."""
    t = F(2)
    values = [F(1), (t + 1) / 2, t]
    for a in values:
        for b in values:
            for c in values:
                v = [a, b, c]
                pattern = is_extreme_direction(v, X3, t) is not None
                kernel = kernel_rank_check(v, X3, t)
                assert pattern == kernel, v


# -- maximality and canonicalization ------------------------------------------


def test_uniform_not_maximal():
    q = Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/2", "1/2"]])
    assert is_ldp(q, F(3))
    assert not is_maximal(q, F(3))


def test_rr_maximal():
    t = F(3)
    q = Channel.build([0, 1], [0, 1], [["3/4", "1/4"], ["1/4", "3/4"]])
    assert is_maximal(q, t)


def test_canonical_weight_rr():
    t = F(3)
    q = Channel.build([0, 1], [0, 1], [["3/4", "1/4"], ["1/4", "3/4"]])
    c = canonical_weight(q, t)
    assert c.values == (F(1, 4), F(1, 4))


def test_canonical_weight_rejects_non_maximal():
    q = Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/2", "1/2"]])
    with pytest.raises(NotMaximalError):
        canonical_weight(q, F(3))


def test_canonical_weight_row_permutation_invariant():
    t = F(2)
    v = enumerate_polytope_vertices(X3, t)[0]
    q = extremal_channel(v)
    rows = [list(r) for r in q.rows]
    rows.reverse()
    permuted = Channel.build(list(q.input_alphabet.letters), list(range(len(rows))), rows)
    assert canonical_weight(permuted, t).values == v.values


def test_canonical_weight_row_split_invariant():
    t = F(2)
    v = enumerate_polytope_vertices(X3, t)[3]
    q = extremal_channel(v)
    rows = []
    for r in q.rows:
        if any(r):
            rows.append([x / 2 for x in r])
            rows.append([x / 2 for x in r])
        else:
            rows.append(list(r))
    split = Channel.build(list(q.input_alphabet.letters), list(range(len(rows))), rows)
    assert canonical_weight(split, t).values == v.values


def test_canonical_weight_roundtrip_on_vertices():
    t = F(2)
    for v in enumerate_polytope_vertices(X3, t):
        assert canonical_weight(extremal_channel(v), t).values == v.values


def test_dominating_maximal_uniform_m2():
    t = F(3)
    q = Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/2", "1/2"]])
    qmax, wit = dominating_maximal(q, t)
    assert is_maximal(qmax, t)
    rr = Channel.build([0, 1], [0, 1], [["3/4", "1/4"], ["1/4", "3/4"]])
    assert equivalent(qmax, rr)
    assert wit.base is qmax or wit.base.rows == qmax.rows


def test_dominating_maximal_already_maximal():
    t = F(2)
    v = enumerate_polytope_vertices(X3, t)[0]
    q = extremal_channel(v)
    qmax, _ = dominating_maximal(q, t)
    assert equivalent(qmax, q)


def _random_ldp_channel(rng: random.Random, m: int, t: Fraction) -> Channel:
    """Random LDP channel: an exact convex mixture of extremal channels.

    With one row per subset, zero rows included, all extremal channels at
    (m, t) share the full subset-indexed row space, so mixing is entrywise.
    """
    verts = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)
    picks = rng.sample(verts, rng.randint(1, min(3, len(verts))))
    raw = [rng.randint(1, 5) for _ in picks]
    tot = sum(raw)
    n_rows = len(picks[0].values)
    rows = [[Fraction(0)] * m for _ in range(n_rows)]
    for share, v in zip(raw, picks):
        q = extremal_channel_reference(v)
        for i, row in enumerate(q.rows):
            for x, val in enumerate(row):
                rows[i][x] += Fraction(share, tot) * val
    return Channel.build(list(range(m)), list(range(n_rows)), rows)


@pytest.mark.parametrize("seed", range(12))
def test_dominating_maximal_random(seed):
    rng = random.Random(seed)
    t = F(2)
    q = _random_ldp_channel(rng, 3, t)
    assert is_ldp(q, t)
    qmax, wit = dominating_maximal(q, t)
    assert is_maximal(qmax, t)
    assert wit.derived.rows == q.rows or equivalent(wit.derived, q)
    assert dominates(qmax, q) is not None


# -- vertex enumeration -------------------------------------------------------


@pytest.mark.parametrize("t", [F(3, 2), F(2), F(5)])
def test_m2_unique_vertex(t):
    verts = enumerate_polytope_vertices(X2, t)
    assert len(verts) == 1
    assert verts[0].values == (F(1, t + 1), F(1, t + 1))


def test_m3_t2_vertex_set_frozen():
    verts = enumerate_polytope_vertices(X3, F(2))
    got = sorted(v.values for v in verts)
    expected = sorted(
        [
            (F(0), F(0), F(1, 5), F(0), F(1, 5), F(1, 5)),
            (F(0), F(0), F(1, 3), F(1, 3), F(0), F(0)),
            (F(0), F(1, 3), F(0), F(0), F(1, 3), F(0)),
            (F(1, 4), F(1, 4), F(0), F(1, 4), F(0), F(0)),
            (F(1, 3), F(0), F(0), F(0), F(0), F(1, 3)),
        ]
    )
    assert got == expected


def test_m3_t1_vertices_are_simplex_corners():
    # at t = 1 the polytope is the probability simplex over B(X)
    verts = enumerate_polytope_vertices(X3, F(1))
    assert len(verts) == 6
    for v in verts:
        assert sorted(v.values) == [F(0)] * 5 + [F(1)]


VERTEX_COUNTS = {2: 1, 3: 5, 4: 41, 5: 1291}
# The m = 4 rows at t = 2, 3, 5 keep their ids t0..t2; m = 5 solves 1,738 supports.
VERTEX_COUNT_CASES = (
    [pytest.param(4, t, id=f"t{i}") for i, t in enumerate((F(2), F(3), F(5)))]
    + [pytest.param(m, t, id=f"m{m}-t{t}".replace("/", "_"))
       for m in (2, 3, 4) for t in (F(3, 2), F(2), F(5))
       if (m, t) not in ((4, F(2)), (4, F(5)))]
    + [pytest.param(5, F(3, 2), id="m5-t3_2")])


@pytest.mark.parametrize("m,t", VERTEX_COUNT_CASES)
def test_m4_vertex_count_frozen(m, t):
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)
    assert len(vertices) == VERTEX_COUNTS[m]


def test_vertices_all_in_polytope():
    for t in (F(3, 2), F(2)):
        for v in enumerate_polytope_vertices(X4, t):
            assert in_weight_polytope(v)


def test_enumeration_cap():
    with pytest.raises(DimensionCapError):
        enumerate_polytope_vertices(FiniteAlphabet.of_size(6), F(2))
    # explicit cap raise lets it through
    verts = enumerate_polytope_vertices(FiniteAlphabet.of_size(2), F(2), cap=2)
    assert len(verts) == 1


def test_enumeration_deterministic():
    a = enumerate_polytope_vertices(X3, F(2))
    b = enumerate_polytope_vertices(X3, F(2))
    assert [v.values for v in a] == [v.values for v in b]


def _full_system(m: int, t: Fraction) -> tuple[list[list[Fraction]], list[Fraction]]:
    return fraction_rows(full_polytope(FiniteAlphabet.of_size(m), t)), [F(1)] * m


@pytest.mark.parametrize("t", [F(1), F(3, 2), F(2), F(3), F(5)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_symmetry_reduced_vertices_match_reference(m, t):
    """Solving one support per S_m orbit finds the reference's vertices."""
    got = [v.values for v in enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)]
    assert got == sorted(basic_feasible_reference(*_full_system(m, t)))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda q: st.builds(Fraction, st.integers(min_value=q + 1, max_value=5 * q), st.just(q))))
@settings(max_examples=8, deadline=None)
def test_symmetry_reduced_vertices_match_reference_m4(t):
    got = [v.values for v in enumerate_polytope_vertices(X4, t)]
    assert got == sorted(basic_feasible_reference(*_full_system(4, t)))


def test_symmetry_reduced_vertices_match_full_scan_m5():
    """At m = 5 the reduced scan equals the scan of all 142,506 supports."""
    t = F(3, 2)
    got = [v.values for v in enumerate_polytope_vertices(FiniteAlphabet.of_size(5), t)]
    assert got == sorted(fraction_vertices(
        enumerate_basic_feasible(*integer_system(*_full_system(5, t)))))


RATIONAL_T = st.integers(min_value=1, max_value=6).flatmap(
    lambda q: st.builds(Fraction, st.integers(min_value=q, max_value=6 * q), st.just(q)))


@given(st.integers(min_value=2, max_value=5), RATIONAL_T)
@settings(max_examples=16, deadline=None)
def test_integer_vertices_match_fraction_reference(m, t):
    """The full polytope's vertices share one denominator, and their values
    and order are those of the Fraction scan sorted as Fraction tuples."""
    polytope = full_polytope(FiniteAlphabet.of_size(m), t)
    vertices = polytope_vertices(polytope)
    assert len({v.denominator for v in vertices}) == 1
    assert [v.values for v in vertices] == polytope_vertices_reference(polytope)


@given(st.integers(min_value=3, max_value=7), st.sampled_from([symmetric_group, cyclic_group]),
       RATIONAL_T)
@settings(max_examples=30, deadline=None)
def test_grouped_integer_vertices_match_fraction_reference(m, group, t):
    polytope = weight_polytope(group(FiniteAlphabet.of_size(m)), t)
    vertices = polytope_vertices(polytope, candidate_cap=CANDIDATE_CAP)
    assert len({v.denominator for v in vertices}) == 1
    assert [v.values for v in vertices] == polytope_vertices_reference(polytope)


@given(st.integers(min_value=2, max_value=4), RATIONAL_T, st.integers(min_value=0),
       st.integers(min_value=2, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_weight_vector_equality_is_by_value(m, t, index, k):
    """Equality and hash hold across denominators, and tell vertices apart."""
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)
    v = vertices[index % len(vertices)]
    scaled = WeightVector(v.polytope, tuple(n * k for n in v.numerators), v.denominator * k)
    assert scaled == v and hash(scaled) == hash(v) and scaled.values == v.values
    assert WeightVector.of_values(v.polytope, v.values) == v
    assert len(set(vertices) | {scaled}) == len(vertices)
    assert all(w != scaled for w in vertices if w is not v)
    with pytest.raises(ValueError, match="positive"):
        WeightVector(v.polytope, v.numerators, 0)


@pytest.mark.parametrize("m,solves", [(3, 8), (4, 101), (5, 2126)])
def test_full_polytope_back_substitutes_independent_supports(monkeypatch, m, solves):
    """The full scan would solve C(2^m - 2, m) supports: 20, 1,001, 142,506.
    The walk back-substitutes only the independent ones whose prefix
    without the last column comes first in its S_m orbit."""
    calls = []
    solve = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute", lambda *a: calls.append(a) or solve(*a))
    ldp_geometry._basic_feasible_cached.cache_clear()
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), F(2))
    assert len(vertices) == VERTEX_COUNTS[m]
    assert len(calls) == solves


@pytest.mark.parametrize("m,unpacks", [(3, 3), (4, 9), (5, 44)])
def test_full_polytope_unpacks_keys_once_per_new_orbit(monkeypatch, m, unpacks):
    """Each prefix keeps its S_m image keys packed in one int; they are
    unpacked only for a solve whose vertex orbit is new.  At m = 5 that is
    44 (28 nondegenerate solves and 16 new degenerate orbits), where 458
    degenerate solves are kept."""
    calls = []
    unpack = linalg._unpack
    monkeypatch.setattr(linalg, "_unpack", lambda *a: calls.append(a) or unpack(*a))
    ldp_geometry._basic_feasible_cached.cache_clear()
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), F(2))
    assert len(vertices) == VERTEX_COUNTS[m]
    assert len(calls) == unpacks


# -- random polytope points ---------------------------------------------------


@st.composite
def polytope_point(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    t = draw(st.sampled_from([F(3, 2), F(2), F(3)]))
    alphabet = FiniteAlphabet.of_size(m)
    verts = enumerate_polytope_vertices(alphabet, t)
    k = draw(st.integers(min_value=1, max_value=min(3, len(verts))))
    picks = [draw(st.sampled_from(verts)) for _ in range(k)]
    raw = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    tot = sum(raw)
    values = [
        sum(Fraction(raw[i], tot) * picks[i].values[j] for i in range(k))
        for j in range(len(picks[0].values))
    ]
    return make_weight_vector(alphabet, t, values)


@given(polytope_point())
@settings(max_examples=60, deadline=None)
def test_mixture_stays_in_polytope(c):
    assert in_weight_polytope(c)


@given(polytope_point())
@settings(max_examples=60, deadline=None)
def test_canonical_roundtrip_random_points(c):
    q = extremal_channel(c)
    assert canonical_weight(q, c.level).values == c.values


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_subset_column_symmetries_match_decoded_masks(m):
    """Read from the mask image tables, the S_m column maps equal those
    built by decoding every mask, so the full scans see the same supports."""
    assert subset_column_symmetries(m) == subset_column_symmetries_reference(m)


# -- ray subsets on the numerators --------------------------------------------

RAY_LEVELS = (F(1), F(3, 2), F(2), F(7, 3), F(3))


@st.composite
def ray_channel(draw, max_m: int = 4, maximal: bool = False) -> tuple[Channel, Fraction]:
    """A channel and the level t its rows were built at.

    Its rows come from a polytope vertex, a random polytope point, the
    audit's sampler (post-processed two times in three) or, as a mixture
    with constant rows, a vertex; `maximal` keeps the first two.  The rows
    are then permuted, some split in two, and zero rows added; unless
    `maximal`, two rows may be merged, which gives three values at ratio t
    when their subsets meet and do not cover the alphabet.  Checked at
    another level, a staircase row becomes a two-valued row off the ratio.
    """
    m = draw(st.integers(min_value=2, max_value=max_m))
    t = draw(st.sampled_from(RAY_LEVELS))
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 16)))
    kinds = ("vertex", "point") if maximal else ("vertex", "point", "sampler", "constant")
    kind = draw(st.sampled_from(kinds))
    if kind == "sampler":
        rows = list(random_private_channel(rng, vertices).rows)
    elif kind == "point":
        rows = list(extremal_channel(random_polytope_point(rng, vertices)).rows)
    else:
        rows = list(extremal_channel(draw(st.sampled_from(vertices))).rows)
    if kind == "constant":
        a, k = F(draw(st.integers(min_value=0, max_value=3)), 4), draw(st.integers(1, 3))
        rows = [[a * x for x in row] for row in rows] + [[(1 - a) / k] * m] * k
    if not maximal and len(rows) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                             unique=True))
        rows = [r for n, r in enumerate(rows) if n not in (i, j)] + \
            [[x + y for x, y in zip(rows[i], rows[j])]]
    split = []
    for row in draw(st.permutations(rows)):
        cut = F(draw(st.integers(min_value=0, max_value=4)), 5)
        split += [[cut * x for x in row], [(1 - cut) * x for x in row]] if cut else [row]
    split += [[F(0)] * m] * draw(st.integers(min_value=0, max_value=2))
    return Channel.of_rows(FiniteAlphabet.of_size(m), FiniteAlphabet.of_size(len(split)),
                           split), t


@given(ray_channel(), st.sampled_from((None, F(1), F(5, 4), F(2))))
@settings(max_examples=300, deadline=None)
def test_ray_subsets_equal_the_fraction_reference(case, check):
    """The integer scan gives is_extreme_direction's subset on every row
    (0 on zero rows), or raises NotLdpError as the reference does; check
    None is the channel's own level."""
    channel, t = case
    level = check or t
    try:
        expected = ray_subsets_reference(channel, level)
    except NotLdpError:
        with pytest.raises(NotLdpError):
            ray_subsets(channel, level)
        return
    assert ray_subsets(channel, level) == expected


def test_ray_subsets_need_exactly_two_values():
    """Row 0 is the staircase rows of {0} and {0, 1} merged, (2, 1, 1) +
    (2, 2, 1): its extremes are at ratio t = 2, but it has three values."""
    channel = Channel.build(range(3), range(3), [[F(4, 6), F(3, 6), F(2, 6)],
                                                 [F(1, 6), F(2, 6), F(2, 6)],
                                                 [F(1, 6), F(1, 6), F(2, 6)]])
    assert ray_subsets(channel, F(2)) == ray_subsets_reference(channel, F(2)) == [None, 6, 4]
