"""Tests for finite alphabets, permutation groups, actions, and orbits."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput.errors import CapExceededError, NotBijectiveError
from ldpput.groups import (
    FiniteAlphabet,
    GroupAction,
    Permutation,
    all_subset_masks,
    cyclic_group,
    generate_group,
    mask_to_positions,
    natural_action,
    orbits,
    subset_action,
    symmetric_group,
    trivial_group,
)
from oracles import is_transitive, positions_to_mask


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
    assert (p * p.inverse()).images == (0, 1, 2)
    assert (p.inverse() * p).images == (0, 1, 2)


def test_permutation_rejects_non_bijections():
    with pytest.raises(NotBijectiveError):
        Permutation((0, 0, 1))


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
    # Sym(8) has order 40320, past the default cap of 10080.
    x = FiniteAlphabet.of_size(8)
    swap = Permutation((1, 0, 2, 3, 4, 5, 6, 7))
    shift = Permutation(tuple((i + 1) % 8 for i in range(8)))
    with pytest.raises(CapExceededError):
        generate_group(x, [swap, shift])


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
    action.validate()
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
    assert action.act(g.inverse(), action.act(g, x)) == x


def test_group_action_validate_rejects_bad_action():
    group = symmetric_group(FiniteAlphabet.of_size(2))
    bad = GroupAction(
        group=group,
        carrier=(0, 1),
        act=lambda g, x: 0,
    )
    with pytest.raises(ValueError):
        bad.validate()
