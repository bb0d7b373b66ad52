"""JSON forms of what the commands read (channels, groups, problems)
and write (weights, vertices, maximality verdicts), and channel hashes.

Rationals travel as "p/q" strings so files round-trip exactly.  Letters
may be ints, strings, or tuples; tuples become JSON lists and are
rebuilt as tuples on load.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .channels import Channel, as_level
from .decision import DecisionProblem, Prior
from .errors import NotLdpError, PolytopeViolationError
from .groups import FiniteAlphabet, PermGroup, Permutation, generate_group
from .ldp_geometry import WeightVector, ray_subsets
from .rationals import format_fraction


def letter_to_json(letter):
    if isinstance(letter, tuple):
        return [letter_to_json(v) for v in letter]
    return letter


def letter_from_json(value):
    if isinstance(value, list):
        return tuple(letter_from_json(v) for v in value)
    return value


def channel_to_json(channel: Channel) -> dict:
    return {
        "input": [letter_to_json(v) for v in channel.input_alphabet.letters],
        "output": [letter_to_json(v) for v in channel.output_alphabet.letters],
        "rows": [[format_fraction(v) for v in row] for row in channel.rows],
    }


_JSON_KINDS = {list: "an array", dict: "an object", str: "a string", bool: "a boolean",
               type(None): "null"}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), "a number")


def _require_object(data, what: str, keys: tuple[str, ...]) -> None:
    """ValueError unless `data` is a JSON object holding every key in
    `keys`, naming the object expected and the first key missing."""
    expected = f"a {what} file must hold a JSON object with keys " + \
        ", ".join(f'"{key}"' for key in keys)
    if not isinstance(data, dict):
        raise ValueError(f"{expected}; got {_kind(data)}")
    missing = next((key for key in keys if key not in data), None)
    if missing is not None:
        raise ValueError(f'{expected}; "{missing}" is missing')


def _array(data: dict, key: str, what: str, matrix: bool = False) -> list:
    """data[key] if it is a JSON array (of arrays, if `matrix`), so that no
    string is read character by character; else ValueError naming both."""
    value = data[key]
    field = f'a {what} file\'s "{key}" must be an array' + (" of arrays" if matrix else "")
    if not isinstance(value, list):
        raise ValueError(f"{field}; got {_kind(value)}, {json.dumps(value)}")
    for i, row in enumerate(value if matrix else ()):
        if not isinstance(row, list):
            raise ValueError(f"{field}; row {i} is {_kind(row)}, {json.dumps(row)}")
    return value


def _holds_object(value) -> bool:
    return isinstance(value, dict) or isinstance(value, list) and any(map(_holds_object, value))


def _letters(data: dict, key: str, what: str) -> list:
    values = _array(data, key, what)
    for i, value in enumerate(values):
        if _holds_object(value):  # no letter is a JSON object, at any depth
            raise ValueError(f'a {what} file\'s "{key}" must hold letters (integers, strings '
                             f"or arrays of them); item {i} holds an object, {json.dumps(value)}")
    return [letter_from_json(v) for v in values]


def channel_from_json(data: dict) -> Channel:
    _require_object(data, "channel", ("input", "output", "rows"))
    return Channel.build(_letters(data, "input", "channel"), _letters(data, "output", "channel"),
                         _array(data, "rows", "channel", matrix=True))


def channel_hash(channel: Channel) -> str:
    import hashlib  # only check-channel hashes, so no other command imports it
    canonical = json.dumps(channel_to_json(channel), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def group_from_json(data: dict) -> PermGroup:
    _require_object(data, "group", ("alphabet", "generators"))
    alphabet = FiniteAlphabet(tuple(_letters(data, "alphabet", "group")))
    gens = _array(data, "generators", "group", matrix=True)
    for i, images in enumerate(gens):
        for v in images:
            if type(v) is not int:  # a bool is an int to isinstance
                raise ValueError(f'a group file\'s "generators" must hold integer images; '
                                 f"generator {i} holds {json.dumps(v)}")
    return generate_group(alphabet, [Permutation(tuple(images)) for images in gens])


def problem_from_json(data: dict) -> tuple[DecisionProblem, Prior | None]:
    _require_object(data, "problem", ("parameters", "inputs", "model", "actions", "loss"))
    problem = DecisionProblem.build(
        parameters=_letters(data, "parameters", "problem"),
        input_letters=_letters(data, "inputs", "problem"),
        model=_array(data, "model", "problem", matrix=True),
        actions=_letters(data, "actions", "problem"),
        loss=_array(data, "loss", "problem", matrix=True),
    )
    prior = Prior.build(_array(data, "prior", "problem")) if "prior" in data else None
    return problem, prior


def _weights_object(m: int, t, support, weights) -> dict:
    """A point of the weight polytope: its support, ascending, and weights."""
    return {
        "m": m,
        "t": format_fraction(t),
        "support": list(support),
        "weights": [format_fraction(w) for w in weights],
    }


def weights_to_json(weights: WeightVector) -> dict:
    support = weights.support
    return _weights_object(weights.input_alphabet.size, weights.level.t, support,
                           map(weights.weight, support))


def maximality_certificate(channel: Channel, level) -> dict:
    """Verdict JSON for one channel: privacy check, maximality, and then
    the canonical weights, or the first offending row when not maximal.

    The privacy check and the ray scan run once each (both in ray_subsets).
    The weights are read off the rows; no weight polytope is built.  A
    staircase row's scale is its smaller entry, and a subset's weight is
    the sum of its rows' scales over the channel's denominator.  At
    t = p / q, each letter x's equality is checked on the support:
    sum_S n_S * (p if x in S else q) = q * denominator.
    """
    level = as_level(level)
    out = {
        "channel_hash": channel_hash(channel),
        "t": format_fraction(level.t),
        "ldp": True,
    }
    try:
        subsets = ray_subsets(channel, level)
    except NotLdpError:
        out["ldp"] = out["verdict"] = False
        return out
    out["verdict"] = None not in subsets
    if not out["verdict"]:
        out["failing_row"] = subsets.index(None)
        return out
    totals: dict[int, int] = {}
    for row, mask in zip(channel.numerators, subsets):
        if mask:
            totals[mask] = totals.get(mask, 0) + min(row)
    p, q = level.t.numerator, level.t.denominator
    d, m = channel.denominator, channel.input_alphabet.size
    if any(sum(n * (p if mask >> x & 1 else q) for mask, n in totals.items()) != q * d
           for x in range(m)):
        raise PolytopeViolationError("gathered weights left the polytope; "
                                     "channel columns cannot be stochastic")
    support = sorted(totals)
    out["canonical_weights"] = _weights_object(
        m, level.t, support, (Fraction(totals[mask], d) for mask in support))
    return out


def vertices_to_json(vertices) -> list[dict]:
    return [weights_to_json(v) for v in vertices]
