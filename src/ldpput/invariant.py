"""The grouped vertex enumeration entry point.

The collapsed polytope itself (orbits, equalities, membership, extremal
channels, vertices) is `ldp_geometry.WeightPolytope`; this module bounds
its vertex scan by the number of candidate supports.
"""

from __future__ import annotations

from .channels import Channel
from .groups import PermGroup
from .ldp_geometry import (
    WeightVector,
    extremal_channel,
    polytope_vertices,
    subset_orbits,  # noqa: F401  traced under this module by perfbench/spans.py
    weight_polytope,
)

CANDIDATE_CAP = 2_000_000


def invariant_extremal_channel(weights: WeightVector) -> Channel:
    """The same as `ldp_geometry.extremal_channel`, under its former name,
    which perfbench/spans.py traces."""
    return extremal_channel(weights)


def enumerate_invariant_vertices(group: PermGroup, level) -> list[WeightVector]:
    """All vertices of the polytope collapsed by the group, exactly; past
    CANDIDATE_CAP candidate supports it raises DimensionCapError."""
    return polytope_vertices(weight_polytope(group, level), candidate_cap=CANDIDATE_CAP)
