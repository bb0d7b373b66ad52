"""Round-trip and certificate tests for the JSON/CSV boundary."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ldpput import ldp_geometry
from ldpput.channels import Channel
from ldpput.decision import DecisionProblem, Prior
from ldpput.groups import FiniteAlphabet, cyclic_group, symmetric_group
from ldpput.errors import PolytopeViolationError
from ldpput.ldp_geometry import enumerate_polytope_vertices, in_weight_polytope
from ldpput.serialize import (
    channel_from_json,
    channel_hash,
    channel_to_json,
    group_from_json,
    letter_from_json,
    letter_to_json,
    maximality_certificate,
    problem_from_json,
    vertices_to_json,
    weights_to_json,
)
from oracles import canonical_weight, group_to_json, problem_to_json, weights_from_json
from test_ldp_geometry import ray_channel

F = Fraction


def rr(t) -> Channel:
    t = F(t)
    return Channel.build(
        [0, 1], [0, 1], [[t / (t + 1), 1 / (t + 1)], [1 / (t + 1), t / (t + 1)]]
    )


def test_letter_roundtrip():
    for letter in (0, "a", (1, "x"), ((0, 1), 2)):
        assert letter_from_json(letter_to_json(letter)) == letter


def test_channel_roundtrip():
    q = rr(3)
    data = channel_to_json(q)
    assert data["rows"][0][0] == "3/4"
    back = channel_from_json(data)
    assert back.rows == q.rows
    assert back.input_alphabet == q.input_alphabet
    assert back.output_alphabet == q.output_alphabet


def test_channel_roundtrip_tuple_letters():
    q = Channel.build(
        [0, 1], [(0, "a"), (0, "b"), (1, "a")],
        [["1/2", "1/4"], ["1/4", "1/4"], ["1/4", "1/2"]],
    )
    back = channel_from_json(channel_to_json(q))
    assert back.output_alphabet.letters == q.output_alphabet.letters


def test_channel_json_is_json_serializable():
    json.dumps(channel_to_json(rr(2)))


def test_channel_from_json_rejects_bad_rationals():
    data = channel_to_json(rr(3))
    data["rows"][0][0] = "not-a-number"
    with pytest.raises(ValueError):
        channel_from_json(data)


def test_channel_hash_stable_and_discriminating():
    assert channel_hash(rr(3)) == channel_hash(rr(3))
    assert channel_hash(rr(3)) != channel_hash(rr(2))


def test_group_roundtrip():
    g = symmetric_group(FiniteAlphabet.of_size(3))
    back = group_from_json(group_to_json(g))
    assert back.alphabet == g.alphabet
    assert [p.images for p in back.elements] == [p.images for p in g.elements]


def test_group_roundtrip_cyclic():
    g = cyclic_group(FiniteAlphabet.of_size(5))
    back = group_from_json(group_to_json(g))
    assert len(back.elements) == 5


def test_problem_roundtrip_with_prior():
    p = DecisionProblem.build(
        parameters=(0, 1),
        input_letters=(0, 1),
        model=[[1, 0], [0, 1]],
        actions=("keep", "drop"),
        loss=[[0, 1], ["1/2", 0]],
    )
    prior = Prior.build(["1/3", "2/3"])
    back, back_prior = problem_from_json(problem_to_json(p, prior))
    assert back.model == p.model
    assert back.loss == p.loss
    assert back.actions == p.actions
    assert back_prior.values == prior.values


def test_problem_roundtrip_without_prior():
    p = DecisionProblem.build(
        parameters=(0, 1),
        input_letters=(0, 1),
        model=[[1, 0], [0, 1]],
        actions=(0, 1),
        loss=[[0, 1], [1, 0]],
    )
    back, back_prior = problem_from_json(problem_to_json(p))
    assert back_prior is None
    assert back.model == p.model


def test_weights_roundtrip_sparse():
    verts = enumerate_polytope_vertices(FiniteAlphabet.of_size(3), F(2))
    for v in verts:
        data = weights_to_json(v)
        assert set(data) >= {"m", "t", "support", "weights"}
        back = weights_from_json(data)
        assert back.values == v.values
        assert back.level == v.level


def test_vertices_to_json_shape():
    verts = enumerate_polytope_vertices(FiniteAlphabet.of_size(3), F(2))
    payload = vertices_to_json(verts)
    assert len(payload) == len(verts)
    assert all("support" in entry and "weights" in entry for entry in payload)


def test_maximality_certificate_positive():
    cert = maximality_certificate(rr(3), F(3))
    assert cert["verdict"] is True
    assert cert["ldp"] is True
    assert cert["channel_hash"] == channel_hash(rr(3))
    assert "failing_row" not in cert


def test_maximality_certificate_negative():
    uniform = Channel.build([0, 1], [0, 1], [["1/2", "1/2"], ["1/2", "1/2"]])
    cert = maximality_certificate(uniform, F(3))
    assert cert["verdict"] is False
    assert cert["ldp"] is True
    assert cert["failing_row"] == 0


def test_maximality_certificate_non_ldp():
    leaky = Channel.build([0, 1], [0, 1], [[1, 0], [0, 1]])
    cert = maximality_certificate(leaky, F(3))
    assert cert["ldp"] is False
    assert cert["verdict"] is False


@given(ray_channel(max_m=5, maximal=True))
@settings(max_examples=150, deadline=None)
def test_certificate_weights_equal_the_full_polytope_reference(case):
    """The weights read off the rows are the full polytope's canonical
    weight vector, and a member of that polytope."""
    channel, t = case
    cert = maximality_certificate(channel, t)
    assert cert["verdict"] is True
    reference = canonical_weight(channel, t)
    assert cert["canonical_weights"] == weights_to_json(reference)
    sparse = weights_from_json(cert["canonical_weights"])
    assert sparse == reference
    assert in_weight_polytope(sparse)


def test_certificate_builds_no_weight_polytope(monkeypatch):
    """Randomized response at m = 20 is certified with both polytope
    builders patched to fail: its 2^20 - 2 subsets are never listed."""
    def refuse(*args):
        raise AssertionError("a weight polytope was built")
    monkeypatch.setattr(ldp_geometry, "weight_polytope", refuse)
    monkeypatch.setattr(ldp_geometry, "full_polytope", refuse)
    m = 20
    channel = Channel.build(range(m), range(m),
                            [[F(1 + (x == y), m + 1) for x in range(m)] for y in range(m)])
    cert = maximality_certificate(channel, F(2))
    assert cert["verdict"] is True
    assert cert["canonical_weights"] == {"m": m, "t": "2", "support": [1 << x for x in range(m)],
                                         "weights": ["1/21"] * m}


def test_certificate_checks_each_letter_row():
    """Staircase rows whose columns sum to 3/4, not 1 (a channel built
    past Channel's own check), leave the polytope: each letter's
    equality row reads 2 + 1 = 3, not 4."""
    bad = object.__new__(Channel)
    for name, value in (("input_alphabet", FiniteAlphabet.of_size(2)),
                        ("output_alphabet", FiniteAlphabet.of_size(2)),
                        ("numerators", ((2, 1), (1, 2))), ("denominator", 4)):
        object.__setattr__(bad, name, value)
    with pytest.raises(PolytopeViolationError):
        maximality_certificate(bad, F(2))
