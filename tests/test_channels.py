"""Tests for channels, privacy levels, Blackwell dominance, and group moves."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpput.channels import (
    Channel,
    PrivacyLevel,
    as_level,
    compose,
    is_ldp,
    require_ldp,
)
from ldpput.applications import CardioidSpec, cardioid_bayes_risk
from ldpput.errors import AlphabetMismatchError, NotLdpError
from ldpput.groups import (
    FiniteAlphabet,
    Permutation,
    all_subset_masks,
    cyclic_group,
    symmetric_group,
)
from ldpput.ldp_geometry import enumerate_polytope_vertices, extremal_channel, staircase_row
from ldpput.put_solver import random_private_channel
from oracles import (
    WeightSumError,
    apply_group_element,
    column,
    compose_reference,
    direct_sum,
    dominates,
    equivalent,
    random_polytope_point,
    symmetrize,
    symmetrized_output_action,
)


def rr2(t) -> Channel:
    """Binary randomized response at privacy level t."""
    t = Fraction(t)
    return Channel.build(
        [0, 1], [0, 1], [[t / (t + 1), 1 / (t + 1)], [1 / (t + 1), t / (t + 1)]]
    )


def uniform_channel(n_out: int, n_in: int) -> Channel:
    p = Fraction(1, n_out)
    return Channel.build(
        list(range(n_in)), list(range(n_out)), [[p] * n_in for _ in range(n_out)]
    )


def test_privacy_level_bounds():
    assert as_level(Fraction(3, 2)).t == Fraction(3, 2)
    with pytest.raises(ValueError):
        as_level(Fraction(1, 2))


def test_privacy_level_from_epsilon():
    import math

    level, bound = PrivacyLevel.from_epsilon(1.0)
    assert abs(float(level.t) - math.e) <= float(bound)
    assert bound < Fraction(1, 10**5)
    exact, bound0 = PrivacyLevel.from_epsilon(0.0)
    assert exact.t == 1


def test_as_level_accepts_strings_and_fractions():
    assert as_level("3/2").t == Fraction(3, 2)
    assert as_level(2).t == 2
    assert as_level(PrivacyLevel(Fraction(5))).t == 5


def test_channel_validates_columns():
    with pytest.raises(ValueError):
        Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/3", "1/2"]])
    with pytest.raises(ValueError):
        Channel.build([0, 1], [0, 1], [["3/2", "1/2"], ["-1/2", "1/2"]])


def test_channel_allows_zero_rows():
    q = Channel.build([0, 1], [0, 1, 2], [["1/2", "1/2"], ["1/2", "1/2"], [0, 0]])
    assert q.rows[2] == (Fraction(0), Fraction(0))


def test_is_ldp_thresholds():
    q = rr2(3)
    assert is_ldp(q, 3)
    assert is_ldp(q, 4)
    assert not is_ldp(q, 2)
    require_ldp(q, 3)
    with pytest.raises(NotLdpError):
        require_ldp(q, 2)


def test_is_ldp_zero_against_positive():
    # a zero entry next to a positive one in the same row breaks every finite t
    q = Channel.build([0, 1], [0, 1], [[1, 0], [0, 1]])
    assert not is_ldp(q, 10**9)


def test_compose_shapes():
    q = rr2(2)
    w = uniform_channel(3, 2)
    out = compose(w, q)
    assert out.input_alphabet == q.input_alphabet
    assert out.output_alphabet == w.output_alphabet
    with pytest.raises(AlphabetMismatchError):
        compose(q, uniform_channel(3, 2))


def test_push_forward():
    q = rr2(3)
    out = q.push_forward([Fraction(1, 2), Fraction(1, 2)])
    assert out == (Fraction(1, 2), Fraction(1, 2))
    out = q.push_forward([Fraction(1), Fraction(0)])
    assert out == (Fraction(3, 4), Fraction(1, 4))


def test_dominates_rr_over_uniform():
    q = rr2(3)
    u = uniform_channel(2, 2)
    wit = dominates(q, u)
    assert wit is not None
    assert compose(wit.post_processor, q).rows == u.rows
    assert dominates(u, q) is None


def test_dominates_reflexive():
    q = rr2(2)
    wit = dominates(q, q)
    assert wit is not None


def test_dominates_transitive_witness_composes():
    t = Fraction(3)
    q = rr2(t)
    mid = compose(uniform_channel(2, 2), q)
    wit1 = dominates(q, mid)
    wit2 = dominates(mid, mid)
    assert wit1 is not None and wit2 is not None
    chained = compose(wit2.post_processor, compose(wit1.post_processor, q))
    assert chained.rows == mid.rows


def test_equivalent_under_output_relabel():
    q = rr2(3)
    flipped = Channel.build([0, 1], [1, 0], [list(q.rows[1]), list(q.rows[0])])
    assert equivalent(q, flipped)


def test_equivalent_under_row_split():
    """Splitting one output row into two proportional halves preserves the order."""
    q = rr2(3)
    rows = [
        [q.rows[0][0] / 2, q.rows[0][1] / 2],
        [q.rows[0][0] / 2, q.rows[0][1] / 2],
        list(q.rows[1]),
    ]
    split = Channel.build([0, 1], [0, 1, 2], rows)
    assert equivalent(q, split)


def test_equivalent_with_zero_row_padding():
    q = rr2(3)
    padded = Channel.build(
        [0, 1], [0, 1, 2], [list(q.rows[0]), list(q.rows[1]), [0, 0]]
    )
    assert equivalent(q, padded)


def test_direct_sum_block_structure():
    q1 = rr2(3)
    q2 = uniform_channel(2, 2)
    s = direct_sum([Fraction(1, 3), Fraction(2, 3)], [q1, q2])
    assert s.output_alphabet.size == 4
    assert s.output_alphabet.letters[0] == (0, 0)
    col = column(s, 0)
    assert sum(col) == 1
    assert col[0] == Fraction(1, 3) * q1.rows[0][0]
    assert col[2] == Fraction(2, 3) * q2.rows[0][0]


def test_direct_sum_rejects_bad_weights():
    q = rr2(2)
    with pytest.raises(WeightSumError):
        direct_sum([Fraction(1, 2), Fraction(1, 3)], [q, q])
    with pytest.raises(WeightSumError):
        direct_sum([Fraction(3, 2), Fraction(-1, 2)], [q, q])


def test_direct_sum_equivalent_to_base_when_blocks_equal():
    """Mixing a channel with itself is a relabel plus row scaling."""
    q = rr2(3)
    s = direct_sum([Fraction(1, 2), Fraction(1, 2)], [q, q])
    assert equivalent(s, q)


def test_direct_sum_preserves_ldp():
    t = Fraction(5, 2)
    q1 = rr2(t)
    q2 = uniform_channel(3, 2)
    s = direct_sum([Fraction(1, 4), Fraction(3, 4)], [q1, q2])
    assert is_ldp(s, t)


def test_ldp_closed_under_post_processing():
    t = Fraction(3)
    q = rr2(t)
    w = Channel.build([0, 1], ["a", "b", "c"], [["1/6", "1/2"], ["1/3", "1/4"], ["1/2", "1/4"]])
    assert is_ldp(compose(w, q), t)


def test_apply_group_element_permutes_entries():
    q = rr2(3)
    group = symmetric_group(q.input_alphabet)
    swap = Permutation((1, 0))
    from oracles import natural_action

    sigma = natural_action(group)
    moved = apply_group_element(swap, sigma, q)
    # swapping both input and output of symmetric RR is a no-op
    assert moved.rows == q.rows


def test_apply_group_element_preserves_ldp():
    t = Fraction(2)
    q = Channel.build(
        [0, 1, 2],
        [0, 1, 2],
        [
            ["1/2", "1/4", "1/4"],
            ["1/4", "1/2", "1/4"],
            ["1/4", "1/4", "1/2"],
        ],
    )
    group = cyclic_group(q.input_alphabet)
    from oracles import natural_action

    sigma = natural_action(group)
    for g in group.elements:
        assert is_ldp(apply_group_element(g, sigma, q), t) == is_ldp(q, t)


def test_symmetrize_preserves_ldp():
    q = Channel.build([0, 1], [0, 1], [["2/3", "1/4"], ["1/3", "3/4"]])
    group = symmetric_group(q.input_alphabet)
    sym = symmetrize(group, q)
    assert sym.output_alphabet.size == len(group.elements) * q.output_alphabet.size
    t = Fraction(3)
    assert is_ldp(q, t)
    assert is_ldp(sym, t)


def test_symmetrize_trivial_group_is_base():
    from ldpput.groups import trivial_group

    q = Channel.build([0, 1], [0, 1], [["2/3", "1/4"], ["1/3", "3/4"]])
    sym = symmetrize(trivial_group(q.input_alphabet), q)
    assert equivalent(sym, q)


def test_symmetrize_is_invariant():
    q = Channel.build([0, 1], [0, 1], [["2/3", "1/4"], ["1/3", "3/4"]])
    group = symmetric_group(q.input_alphabet)
    sym = symmetrize(group, q)
    action = symmetrized_output_action(group, q)
    for g in group.elements:
        assert apply_group_element(g, action, sym).rows == sym.rows


def test_symmetrize_of_invariant_channel_is_equivalent():
    q = rr2(3)
    group = symmetric_group(q.input_alphabet)
    assert equivalent(symmetrize(group, q), q)


def _draw_stochastic(draw, n_out, n_in):
    cols = []
    for _ in range(n_in):
        raw = draw(
            st.lists(st.integers(min_value=1, max_value=9), min_size=n_out, max_size=n_out)
        )
        total = sum(raw)
        cols.append([Fraction(v, total) for v in raw])
    rows = [[cols[x][y] for x in range(n_in)] for y in range(n_out)]
    return Channel.build(list(range(n_in)), list(range(n_out)), rows)


@st.composite
def small_channel(draw):
    n_in = draw(st.integers(min_value=2, max_value=3))
    n_out = draw(st.integers(min_value=2, max_value=4))
    return _draw_stochastic(draw, n_out, n_in)


@st.composite
def channel_with_post_processor(draw):
    q = draw(small_channel())
    n_out = draw(st.integers(min_value=2, max_value=4))
    w = _draw_stochastic(draw, n_out, q.output_alphabet.size)
    return q, w


@given(channel_with_post_processor())
@settings(max_examples=40, deadline=None)
def test_post_processing_never_beats_base(qw):
    """compose(W, Q) is always dominated by Q."""
    q, w = qw
    out = compose(w, q)
    assert dominates(q, out) is not None


@given(small_channel())
@settings(max_examples=40, deadline=None)
def test_dominates_self_always(q):
    assert dominates(q, q) is not None


@given(small_channel(), st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_min_ldp_level_is_tight(q, _seed):
    """The smallest valid t is max over rows of max/min; below it fails."""
    worst = Fraction(1)
    for row in q.rows:
        positive = [v for v in row if v > 0]
        if len(positive) < len(row):
            return  # zero entries force t = infinity; skip
        ratio = max(row) / min(row)
        worst = max(worst, ratio)
    assert is_ldp(q, worst)
    if worst > 1:
        assert not is_ldp(q, worst - Fraction(1, 10**9))


def draw_sparse_stochastic(draw, n_out: int, n_in: int) -> Channel:
    """Columns over unrelated denominators with zero entries; with two or
    more outputs, one row may be zero throughout."""
    zero_row = draw(st.integers(min_value=-1, max_value=n_out - 1)) if n_out > 1 else -1
    live = [y for y in range(n_out) if y != zero_row]
    cols = []
    for _ in range(n_in):
        raw = draw(st.lists(st.integers(min_value=0, max_value=12),
                            min_size=n_out, max_size=n_out))
        raw = [0 if y == zero_row else v for y, v in enumerate(raw)]
        if not any(raw):
            raw[live[0]] = 1
        total = sum(raw)
        cols.append([Fraction(v, total) for v in raw])
    rows = [[cols[x][y] for x in range(n_in)] for y in range(n_out)]
    return Channel.build(list(range(n_in)), list(range(n_out)), rows)


@st.composite
def sparse_pair(draw):
    n_in, n_mid, n_out = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    return (draw_sparse_stochastic(draw, n_out, n_mid),
            draw_sparse_stochastic(draw, n_mid, n_in))


@given(sparse_pair())
@settings(max_examples=150, deadline=None)
def test_compose_equals_fraction_reference(pair):
    """The integer product gives the same Fractions as one per multiply-add."""
    post, q = pair
    out = compose(post, q)
    assert out == compose_reference(post, q)
    assert all(type(v) is Fraction for row in out.rows for v in row)


# -- the integer form ---------------------------------------------------------


def test_equal_matrices_from_different_scalings_are_equal():
    two = FiniteAlphabet.of_size(2)
    halves = Channel(input_alphabet=two, output_alphabet=two,
                     numerators=((1, 1), (1, 1)), denominator=2)
    quarters = Channel(input_alphabet=two, output_alphabet=two,
                       numerators=((2, 2), (2, 2)), denominator=4)
    assert halves == quarters
    assert hash(halves) == hash(quarters)
    assert quarters.numerators == ((1, 1), (1, 1)) and quarters.denominator == 2
    assert quarters == uniform_channel(2, 2)


@given(sparse_pair())
@settings(max_examples=60, deadline=None)
def test_rows_round_trip_the_built_fractions(pair):
    for q in pair:
        rows = [list(row) for row in q.rows]
        rebuilt = Channel.build(q.input_alphabet.letters, q.output_alphabet.letters, rows)
        assert rebuilt.rows == tuple(map(tuple, rows))
        assert rebuilt == q
        assert all(type(v) is Fraction for row in rebuilt.rows for v in row)


@pytest.mark.parametrize("numerators, denominator, message", [
    (((3, 1), (-1, 1)), 2, "channel entries must be nonnegative"),
    (((1, 1), (1, 0)), 2, "column 1 sums to 1/2, not 1"),
    (((1, 1), (1, 1), (0, 0)), 2, "expected 2 rows, got 3"),
    (((1, 1), (1,)), 2, "expected 2 entries per row, got 1"),
    (((0, 0), (0, 0)), 0, "channel denominator must be positive"),
    (((-1, -1), (0, 0)), -1, "channel denominator must be positive"),
])
def test_channel_validation_messages(numerators, denominator, message):
    two = FiniteAlphabet.of_size(2)
    with pytest.raises(ValueError, match=message):
        Channel(input_alphabet=two, output_alphabet=two,
                numerators=numerators, denominator=denominator)


def test_channel_build_keeps_fraction_messages():
    with pytest.raises(ValueError, match="column 0 sums to 5/6, not 1"):
        Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/3", "1/2"]])
    with pytest.raises(ValueError, match="channel entries must be nonnegative"):
        Channel.build([0, 1], [0, 1], [["3/2", "1/2"], ["-1/2", "1/2"]])


@pytest.mark.parametrize("n_in", [1, 3])
def test_channel_without_outputs_is_refused(n_in):
    """With no output row every column sums to 0, and each column is
    checked; the output alphabet is a size-0 stand-in, since
    FiniteAlphabet itself refuses to be empty."""
    with pytest.raises(ValueError):
        Channel.build(range(n_in), [], [])
    with pytest.raises(ValueError, match="column 0 sums to 0, not 1"):
        Channel(input_alphabet=FiniteAlphabet.of_size(n_in),
                output_alphabet=SimpleNamespace(size=0), numerators=(), denominator=1)


@given(st.sampled_from([2, 3, 4]), st.sampled_from(["1", "3/2", "2", "7/3"]),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_extremal_channel_is_the_weighted_staircase(m, t, seed):
    """One output per subset of nonzero weight w_S, ascending: its row is
    w_S * t on the subset and w_S elsewhere, as Fractions."""
    t = Fraction(t)
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), t)
    weights = random_polytope_point(random.Random(seed), vertices)
    q = extremal_channel(weights)
    live = [mask for mask in all_subset_masks(m) if weights.weight(mask)]
    assert q.rows == tuple(
        tuple(weights.weight(mask) * s for s in staircase_row(mask, m, t)) for mask in live)
    assert q.output_alphabet.letters == tuple(live) == weights.support


@given(sparse_pair(), st.sampled_from(["1", "3/2", "2", "7/3", "5", "1000"]))
@settings(max_examples=100, deadline=None)
def test_is_ldp_agrees_with_the_fraction_rule(pair, t):
    post, q = pair
    t = Fraction(t)
    for channel in (q, compose(post, q)):
        expected = all(t * min(row) >= max(row) for row in channel.rows)
        assert is_ldp(channel, t) is expected


def _cardioid_risk_on_fractions(spec, channel) -> float:
    """cardioid_bayes_risk with float(Fraction) per entry."""
    m = spec.m
    gamma = float(spec.gamma)
    m0 = [1.0 / m] * m
    mc = [gamma * math.cos(2.0 * math.pi * x / m) / (2.0 * m) for x in range(m)]
    ms = [gamma * math.sin(2.0 * math.pi * x / m) / (2.0 * m) for x in range(m)]
    total = 0.0
    for row in channel.rows:
        c0 = sum(float(v) * m0[x] for x, v in enumerate(row))
        cc = sum(float(v) * mc[x] for x, v in enumerate(row))
        cs = sum(float(v) * ms[x] for x, v in enumerate(row))
        total += c0 - math.hypot(cc, cs)
    return total


@given(st.sampled_from([3, 4]), st.sampled_from(["3/2", "2", "5"]),
       st.sampled_from(["1/3", "1", "3/4"]), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_cardioid_bayes_risk_is_the_float_of_each_fraction(m, t, gamma, seed):
    spec = CardioidSpec.build(m, gamma, t)
    vertices = enumerate_polytope_vertices(FiniteAlphabet.of_size(m), Fraction(t))
    q = random_private_channel(random.Random(seed), vertices)
    assert cardioid_bayes_risk(spec, q) == _cardioid_risk_on_fractions(spec, q)
