"""Transitive-group shortcuts on the orbit-collapsed weight polytope.

The collapsed polytope itself (orbits, equalities, membership, extremal
channels, vertices) is `ldp_geometry.WeightPolytope`.  For transitive
groups it is a simplex, one vertex per subset orbit, with closed-form
vertex weights; this module holds the subset selection mechanism built
from them, lifting to the full polytope, and the grouped vertex
enumeration entry point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .channels import Channel, as_level
from .errors import BadSubsetSizeError
from .groups import (
    FiniteAlphabet,
    GroupAction,
    PermGroup,
    all_subset_masks,
    mask_to_positions,
    natural_action,
    subset_action,
)
from .ldp_geometry import (
    WeightVector,
    extremal_channel,
    full_polytope,
    polytope_vertices,
    staircase_row,
    subset_orbits,  # noqa: F401  traced under this module by perfbench/spans.py
    weight_polytope,
)

CANDIDATE_CAP = 2_000_000


def lift_weights(weights: WeightVector) -> WeightVector:
    """Spread each orbit weight onto all of the orbit's subsets."""
    m = weights.input_alphabet.size
    return WeightVector(polytope=full_polytope(weights.input_alphabet, weights.level),
                        values=tuple(weights.weight(mask) for mask in all_subset_masks(m)))


def invariant_extremal_channel(weights: WeightVector) -> Channel:
    """The same as `ldp_geometry.extremal_channel`, under its former name,
    which perfbench/spans.py traces."""
    return extremal_channel(weights)


def ss_mechanism(alphabet: FiniteAlphabet, k: int, level) -> Channel:
    """Subset selection: report a uniform random size-k subset, tilted to
    favor subsets containing the true letter.

    Equals the fully symmetric invariant channel on the k-subset orbit;
    built directly so large alphabets need no group closure.
    """
    level = as_level(level)
    m = alphabet.size
    if not 1 <= k <= m - 1:
        raise BadSubsetSizeError(f"subset size must be in 1..{m - 1}, got {k}")
    t = level.t
    w = Fraction(m, 1) / (comb(m, k) * (k * t + m - k))
    masks = [mask for mask in all_subset_masks(m) if len(mask_to_positions(mask)) == k]
    rows = tuple(tuple(v * w for v in staircase_row(mask, m, t)) for mask in masks)
    return Channel(input_alphabet=alphabet,
                   output_alphabet=FiniteAlphabet(tuple(masks)),
                   rows=rows)


def enumerate_invariant_vertices(group: PermGroup, level) -> list[WeightVector]:
    """All vertices of the polytope collapsed by the group, exactly; past
    CANDIDATE_CAP candidate supports it raises DimensionCapError."""
    return polytope_vertices(weight_polytope(group, level), candidate_cap=CANDIDATE_CAP)


def invariant_output_action(group: PermGroup, channel: Channel) -> GroupAction:
    """Subset action restricted to a channel whose outputs are masks."""
    base = subset_action(natural_action(group))
    return GroupAction(group=group, carrier=tuple(channel.output_alphabet.letters),
                       act=base.act)
