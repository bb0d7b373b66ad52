"""JSON forms of what the commands read (channels, groups, problems)
and write (weights, vertices, maximality verdicts), and channel hashes.

Rationals travel as "p/q" strings so files round-trip exactly.  Letters
may be ints, strings, or tuples; tuples become JSON lists and are
rebuilt as tuples on load.
"""

from __future__ import annotations

import hashlib
import json

from .channels import Channel, as_level
from .decision import DecisionProblem, Prior
from .errors import NotLdpError
from .groups import FiniteAlphabet, PermGroup, Permutation, generate_group
from .ldp_geometry import WeightVector, canonical_weight_from_rays, ray_subsets
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


def channel_from_json(data: dict) -> Channel:
    return Channel.build([letter_from_json(v) for v in data["input"]],
                         [letter_from_json(v) for v in data["output"]],
                         data["rows"])


def channel_hash(channel: Channel) -> str:
    canonical = json.dumps(channel_to_json(channel), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def group_from_json(data: dict) -> PermGroup:
    alphabet = FiniteAlphabet(tuple(letter_from_json(v) for v in data["alphabet"]))
    gens = [Permutation(tuple(images)) for images in data["generators"]]
    return generate_group(alphabet, gens)


def problem_from_json(data: dict) -> tuple[DecisionProblem, Prior | None]:
    problem = DecisionProblem.build(
        parameters=[letter_from_json(v) for v in data["parameters"]],
        input_letters=[letter_from_json(v) for v in data["inputs"]],
        model=data["model"],
        actions=[letter_from_json(v) for v in data["actions"]],
        loss=data["loss"],
    )
    prior = Prior.build(data["prior"]) if "prior" in data else None
    return problem, prior


def weights_to_json(weights: WeightVector) -> dict:
    support = weights.support
    return {
        "m": weights.input_alphabet.size,
        "t": format_fraction(weights.level.t),
        "support": list(support),
        "weights": [format_fraction(weights.weight(mask)) for mask in support],
    }


def maximality_certificate(channel: Channel, level) -> dict:
    """Verdict JSON for one channel: privacy check, maximality, and then
    the canonical weights, or the first offending row when not maximal.

    The privacy check and the ray scan run once each (both in ray_subsets).
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
    if out["verdict"]:
        out["canonical_weights"] = weights_to_json(
            canonical_weight_from_rays(channel, level, subsets))
    else:
        out["failing_row"] = subsets.index(None)
    return out


def vertices_to_json(vertices) -> list[dict]:
    return [weights_to_json(v) for v in vertices]
