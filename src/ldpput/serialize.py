"""JSON and CSV forms for channels, groups, problems, and results.

Rationals travel as "p/q" strings so files round-trip exactly.  Letters
may be ints, strings, or tuples; tuples become JSON lists and are
rebuilt as tuples on load.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

from .channels import Channel, PrivacyLevel, as_level, is_ldp
from .decision import DecisionProblem, Prior
from .groups import FiniteAlphabet, PermGroup, Permutation, generate_group
from .ldp_geometry import WeightVector, full_polytope, is_extreme_direction, is_maximal
from .rationals import as_fraction, format_fraction


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
    return Channel(
        input_alphabet=FiniteAlphabet(tuple(letter_from_json(v) for v in data["input"])),
        output_alphabet=FiniteAlphabet(tuple(letter_from_json(v) for v in data["output"])),
        rows=tuple(tuple(as_fraction(v) for v in row) for row in data["rows"]),
    )


def channel_hash(channel: Channel) -> str:
    canonical = json.dumps(channel_to_json(channel), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def channel_to_csv(channel: Channel) -> str:
    """Flattened triplet layout: one line per (output, input, value)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["output", "input", "value"])
    for letter, row in zip(channel.output_alphabet.letters, channel.rows):
        for x, value in zip(channel.input_alphabet.letters, row):
            writer.writerow([str(letter_to_json(letter)), str(letter_to_json(x)),
                             format_fraction(value)])
    return buf.getvalue()


def group_to_json(group: PermGroup) -> dict:
    return {
        "alphabet": [letter_to_json(v) for v in group.alphabet.letters],
        "generators": [list(g.images) for g in group.generators],
    }


def group_from_json(data: dict, cap: int | None = None) -> PermGroup:
    alphabet = FiniteAlphabet(tuple(letter_from_json(v) for v in data["alphabet"]))
    gens = [Permutation(tuple(images)) for images in data["generators"]]
    kwargs = {} if cap is None else {"cap": cap}
    return generate_group(alphabet, gens, **kwargs)


def problem_to_json(problem: DecisionProblem, prior: Prior | None = None) -> dict:
    data = {
        "parameters": [letter_to_json(v) for v in problem.parameters],
        "inputs": [letter_to_json(v) for v in problem.input_alphabet.letters],
        "actions": [letter_to_json(v) for v in problem.actions],
        "model": [[format_fraction(v) for v in row] for row in problem.model],
        "loss": [[format_fraction(v) for v in row] for row in problem.loss],
    }
    if prior is not None:
        data["prior"] = [format_fraction(v) for v in prior.values]
    return data


def problem_from_json(data: dict) -> tuple[DecisionProblem, Prior | None]:
    problem = DecisionProblem(
        parameters=tuple(letter_from_json(v) for v in data["parameters"]),
        input_alphabet=FiniteAlphabet(tuple(letter_from_json(v)
                                            for v in data["inputs"])),
        model=tuple(tuple(as_fraction(v) for v in row) for row in data["model"]),
        actions=tuple(letter_from_json(v) for v in data["actions"]),
        loss=tuple(tuple(as_fraction(v) for v in row) for row in data["loss"]),
    )
    prior = None
    if "prior" in data:
        prior = Prior(values=tuple(as_fraction(v) for v in data["prior"]))
    return problem, prior


def weights_to_json(weights: WeightVector) -> dict:
    support = weights.support
    return {
        "m": weights.input_alphabet.size,
        "t": format_fraction(weights.level.t),
        "support": list(support),
        "weights": [format_fraction(weights.weight(mask)) for mask in support],
    }


def weights_from_json(data: dict, alphabet: FiniteAlphabet | None = None) -> WeightVector:
    m = int(data["m"])
    if alphabet is None:
        alphabet = FiniteAlphabet.of_size(m)
    values = [Fraction(0)] * ((1 << m) - 2)
    for mask, value in zip(data["support"], data["weights"]):
        values[int(mask) - 1] = as_fraction(value)
    return WeightVector(polytope=full_polytope(alphabet, as_level(data["t"])),
                        values=tuple(values))


def maximality_certificate(channel: Channel, level) -> dict:
    """Verdict JSON for one channel: privacy check, maximality, and the
    first offending row when not maximal."""
    level = as_level(level)
    ldp = is_ldp(channel, level)
    out = {
        "channel_hash": channel_hash(channel),
        "t": format_fraction(level.t),
        "ldp": ldp,
    }
    if not ldp:
        out["verdict"] = False
        return out
    failing = None
    for y, row in enumerate(channel.rows):
        if all(v == 0 for v in row):
            continue
        if is_extreme_direction(row, channel.input_alphabet, level) is None:
            failing = y
            break
    out["verdict"] = failing is None and is_maximal(channel, level)
    if failing is not None:
        out["failing_row"] = failing
    return out


def vertices_to_json(vertices) -> list[dict]:
    return [weights_to_json(v) for v in vertices]
