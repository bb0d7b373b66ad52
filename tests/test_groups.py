"""Tests for finite alphabets, permutation groups, actions, and orbits."""

from __future__ import annotations

import ast
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput import ldp_geometry
from ldpput.errors import CapExceededError, NotBijectiveError, RepresentativeMismatchError
from ldpput.groups import (
    FiniteAlphabet,
    Permutation,
    all_subset_masks,
    cyclic_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from ldpput.ldp_geometry import input_orbits, weight_polytope
from ldpput.serialize import group_from_json
from oracles import (
    GroupAction,
    inverse,
    is_transitive,
    natural_action,
    mask_to_positions,
    orbit_column_sum_reference,
    orbits,
    positions_to_mask,
    subset_action,
    validate_action,
)


def test_alphabet_of_size():
    x = FiniteAlphabet.of_size(4)
    assert x.letters == (0, 1, 2, 3)
    assert x.size == 4
    assert x.index(2) == 2


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        FiniteAlphabet(("a", "a"))


def test_permutation_compose_and_inverse():
    # images[i] is the image of position i
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    # (p * q)(i) = p(q(i))
    pq = p * q
    assert pq.images == tuple(p.images[q.images[i]] for i in range(3))
    assert (p * inverse(p)).images == (0, 1, 2)
    assert (inverse(p) * p).images == (0, 1, 2)


def test_permutation_rejects_non_bijections():
    with pytest.raises(NotBijectiveError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("images", [(1.0, 0, 2), (True, 0, 2), ("a", 0, 2), (1, 0, 2.0)])
def test_permutation_rejects_images_that_are_not_ints(images):
    """1.0 and True equal 1, so these passed the bijection test, and a
    float image then failed in mask_images; a string failed in sorted."""
    with pytest.raises(NotBijectiveError):
        Permutation(images)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_group_order(m):
    g = symmetric_group(FiniteAlphabet.of_size(m))
    import math

    assert len(g.elements) == math.factorial(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7])
def test_cyclic_group_order(m):
    g = cyclic_group(FiniteAlphabet.of_size(m))
    assert len(g.elements) == m


def test_trivial_group():
    g = trivial_group(FiniteAlphabet.of_size(3))
    assert len(g.elements) == 1
    assert g.elements[0].images == (0, 1, 2)


def test_generate_group_cap():
    # Sym(8) has order 40320, past the default cap of 10080: generating it
    # closes nothing, and the cap is met only when its elements are read.
    x = FiniteAlphabet.of_size(8)
    swap = Permutation((1, 0, 2, 3, 4, 5, 6, 7))
    shift = Permutation(tuple((i + 1) % 8 for i in range(8)))
    group = generate_group(x, [swap, shift])
    assert group.generators == (swap, shift)
    with pytest.raises(CapExceededError):
        group.elements


@st.composite
def file_groups(draw):
    """A group as a `file:` JSON gives it: up to three generators on one to
    five letters, every one of them the identity about half the time."""
    m = draw(st.integers(min_value=1, max_value=5))
    perms = st.just(list(range(m))) if draw(st.booleans()) else st.permutations(range(m))
    gens = draw(st.lists(perms, max_size=3))
    return group_from_json({"alphabet": list(range(m)), "generators": gens})


@given(file_groups())
@settings(max_examples=100, deadline=None)
def test_is_trivial_iff_order_one(group):
    assert group.is_trivial == (group.order == 1)


def _attribute_reads(node, scope, names):
    """(innermost enclosing def, attribute) for each read of `names`."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        if isinstance(child, ast.Attribute) and child.attr in names:
            yield scope, child.attr
        yield from _attribute_reads(child, inner, names)


def test_only_column_group_reads_group_elements():
    """In src/, only `linalg._column_group` closes a group: every other
    caller reads generators, orbits or `is_trivial`.  `PermGroup.order`
    itself reads the element list."""
    src = Path(__file__).resolve().parent.parent / "src" / "ldpput"
    readers = {(path.stem, scope, attr)
               for path in sorted(src.glob("*.py"))
               for scope, attr in _attribute_reads(ast.parse(path.read_text(encoding="utf-8")),
                                                   "<module>", ("elements", "order"))}
    assert readers == {("linalg", "_column_group", "elements"),
                       ("groups", "order", "elements")}


def test_group_elements_deterministic_order():
    g1 = symmetric_group(FiniteAlphabet.of_size(3))
    g2 = symmetric_group(FiniteAlphabet.of_size(3))
    assert [p.images for p in g1.elements] == [p.images for p in g2.elements]
    assert [p.images for p in g1.elements] == sorted(p.images for p in g1.elements)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_group_laws_exhaustive(m):
    """Identity and compatibility hold over all (g, h, x)."""
    group = symmetric_group(FiniteAlphabet.of_size(m))
    action = natural_action(group)
    validate_action(action)
    ident = Permutation.identity(m)
    for g, h in itertools.product(group.elements, repeat=2):
        for x in group.alphabet.letters:
            assert action.act(ident, x) == x
            assert action.act(g, action.act(h, x)) == action.act(g * h, x)


def test_mask_positions_roundtrip():
    for mask in all_subset_masks(5):
        assert positions_to_mask(mask_to_positions(mask)) == mask


def test_all_subset_masks_count_and_order():
    masks = list(all_subset_masks(4))
    assert masks == list(range(1, 15))
    assert len(masks) == 2**4 - 2


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_subset_action_preserves_size(m):
    """|gy| = |y| for every group element and nonempty proper subset."""
    group = symmetric_group(FiniteAlphabet.of_size(m))
    action = subset_action(natural_action(group))
    for mask in all_subset_masks(m):
        k = bin(mask).count("1")
        for g in group.elements:
            assert bin(action.act(g, mask)).count("1") == k


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_subset_orbit_sizes_divide_group_order(m):
    group = cyclic_group(FiniteAlphabet.of_size(m))
    action = subset_action(natural_action(group))
    carrier = tuple(all_subset_masks(m))
    for orb in orbits(action):
        assert len(group.elements) % len(orb) == 0


def test_symmetric_subset_orbits_by_size():
    """Under Sym(m) the subset orbits are exactly the size classes."""
    m = 4
    group = symmetric_group(FiniteAlphabet.of_size(m))
    action = subset_action(natural_action(group))
    orbs = orbits(action)
    sizes = sorted(len(o) for o in orbs)
    from math import comb

    assert sizes == sorted(comb(m, k) for k in range(1, m))


def test_cyclic_subset_orbits_m4():
    """Z_4 on nonempty proper subsets of a 4-letter alphabet: orbit count 4."""
    group = cyclic_group(FiniteAlphabet.of_size(4))
    action = subset_action(natural_action(group))
    orbs = orbits(action)
    # singletons, adjacent pairs, antipodal pairs, triples
    assert len(orbs) == 4
    assert sorted(len(o) for o in orbs) == [2, 4, 4, 4]
    assert (0b0101, 0b1010) in orbs


def test_orbits_partition_carrier():
    group = cyclic_group(FiniteAlphabet.of_size(5))
    action = subset_action(natural_action(group))
    carrier = tuple(all_subset_masks(5))
    orbs = orbits(action)
    seen = [x for orb in orbs for x in orb]
    assert sorted(seen) == sorted(carrier)
    # deterministic ordering: orbits sorted by smallest member
    reps = [min(o) for o in orbs]
    assert reps == sorted(reps)


def test_is_transitive():
    x = FiniteAlphabet.of_size(4)
    assert is_transitive(natural_action(cyclic_group(x)))
    assert is_transitive(natural_action(symmetric_group(x)))
    assert not is_transitive(natural_action(trivial_group(x)))


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=50, deadline=None)
def test_random_permutation_action_laws(m, data):
    """Action laws hold for randomly drawn pairs in Sym(m)."""
    group = symmetric_group(FiniteAlphabet.of_size(m))
    action = natural_action(group)
    g = data.draw(st.sampled_from(group.elements))
    h = data.draw(st.sampled_from(group.elements))
    x = data.draw(st.sampled_from(group.alphabet.letters))
    assert action.act(g, action.act(h, x)) == action.act(g * h, x)
    assert action.act(inverse(g), action.act(g, x)) == x


def test_group_action_validate_rejects_bad_action():
    group = symmetric_group(FiniteAlphabet.of_size(2))
    bad = GroupAction(
        group=group,
        carrier=(0, 1),
        act=lambda g, x: 0,
    )
    with pytest.raises(ValueError):
        validate_action(bad)


@st.composite
def generated_groups(draw, max_m=10):
    """A group on 2 .. max_m letters in a shuffled letter order, by up to
    three generators: drawn permutations of every letter or of a few, the
    identity, and a repeat of one of them."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    letters = tuple(draw(st.permutations("abcdefghij"[:m])))

    def moving(positions):
        images = list(range(m))
        for x, y in zip(sorted(positions), positions):
            images[x] = y
        return images

    perms = st.one_of(st.just(list(range(m))), st.permutations(range(m)),
                      st.lists(st.integers(0, m - 1), unique=True).flatmap(st.permutations)
                      .map(moving))
    gens = draw(st.lists(perms, max_size=3))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return generate_group(FiniteAlphabet(letters), gens)


@given(generated_groups())
@settings(max_examples=60, deadline=None)
def test_subset_orbits_match_callable_reference(group):
    """The table-driven orbit pass lists the same orbits, in the same order
    and each in the same member order, as closing every mask by calls."""
    reference = orbits(subset_action(natural_action(group)))
    assert tuple(orbit.masks for orbit in group.subset_orbits) == reference


@given(generated_groups())
@settings(max_examples=60, deadline=None)
def test_input_orbits_match_callable_reference(group):
    assert input_orbits(group) == orbits(natural_action(group))


@given(generated_groups(max_m=8), st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(7, 3)]))
@settings(max_examples=40, deadline=None)
def test_weight_polytope_rows_match_per_letter_scan(group, t):
    """Equal coefficients on every (letter orbit, subset orbit) pair, the
    orbit index of every mask, and the same refusal when the whole
    alphabet is taken as one letter orbit where it is not one."""
    orbs = group.subset_orbits
    polytope = weight_polytope(group, t)
    assert polytope.rows == tuple(
        tuple(orbit_column_sum_reference(group, letter_orbit, orbit, t) for orbit in orbs)
        for letter_orbit in input_orbits(group))
    assert polytope.orbit_index == tuple(
        next(j for j, orbit in enumerate(orbs) if mask in orbit.masks)
        for mask in all_subset_masks(group.alphabet.size))
    whole = group.alphabet.letters
    with mock.patch.object(ldp_geometry, "input_orbits", lambda g: (whole,)):
        try:
            expected = tuple(orbit_column_sum_reference(group, whole, orbit, t) for orbit in orbs)
        except RepresentativeMismatchError:
            with pytest.raises(RepresentativeMismatchError):
                weight_polytope(group, t)
        else:
            assert weight_polytope(group, t).rows == (expected,)


def test_weight_polytope_refuses_a_letter_orbit_with_varying_counts(monkeypatch):
    """A transposition of letters 0 and 1 leaves 2 and 3 fixed, so the
    subset orbit {{0}, {1}} holds letter 0 once and letter 3 never: the
    whole alphabet taken as one letter orbit must be refused, not read
    off its first letter."""
    group = generate_group(FiniteAlphabet.of_size(4), [Permutation((1, 0, 2, 3))])
    monkeypatch.setattr(ldp_geometry, "input_orbits", lambda g: (g.alphabet.letters,))
    with pytest.raises(RepresentativeMismatchError, match="varies over the letter orbit"):
        weight_polytope(group, 2)


def test_symmetric_subset_orbits_m16():
    """S_16 at the grouped cap: one orbit per subset size k, of C(16, k) masks."""
    orbs = symmetric_group(FiniteAlphabet.of_size(16)).subset_orbits
    assert len(orbs) == 15
    assert [orbit.subset_size for orbit in orbs] == list(range(1, 16))
    assert [orbit.size for orbit in orbs] == [comb(16, k) for k in range(1, 16)]
