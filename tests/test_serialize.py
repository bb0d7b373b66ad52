"""Round-trip and certificate tests for the JSON/CSV boundary."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ldpput.channels import Channel
from ldpput.decision import DecisionProblem, Prior
from ldpput.groups import FiniteAlphabet, cyclic_group, symmetric_group
from ldpput.ldp_geometry import enumerate_polytope_vertices
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
from oracles import group_to_json, problem_to_json, weights_from_json

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
