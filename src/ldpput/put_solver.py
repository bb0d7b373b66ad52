"""Privacy-utility trade-off computation.

Three routes to the same number: scan the polytope vertices, solve an
exact LP when the objective is linear over subset weights, or read off
the closed form when a transitive group collapses the polytope to a
simplex.  A seeded audit hammers the claimed optimum with random
channels that never should beat it.

One rule decides every certificate: a result is "exact" only when the
solver holds a per-subset form (indexed by mask - 1) that
`constant_on_orbits` finds constant on every subset orbit of its group,
and "bound_only" otherwise.  The forms are the linear form of the sweep
(`coefficients=`) and of `put_by_lp`, and the closed form's values,
which it refuses unless constant on every orbit.  A sweep without a form
is only a bound, grouped or not.  The sweep and the LP read a form
through one reader, `_form_costs`: every entry exactly (a float as the
binary rational it holds), so both optimise the same objective, and only
the certificate compares floats, within FLOAT_TOLERANCE.  The sweep also
checks its form against the objective itself at its argmin channel.

The caller's contract: a form or closed-form values come from a
data-processing-monotone objective that is affine over direct sums, such
as a Bayes risk.  Then the polytope's optimum is the optimum over all
private channels, and an orbit-constant form keeps it on the group's
orbit polytope.  It must also give equivalent channels the same value,
as data-processing monotonicity already ensures: a maximal channel
lists only its subsets of nonzero weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from operator import mul
from typing import Callable, Sequence

from .channels import Channel, as_level
from .errors import (
    AuditFailureError,
    NotTransitiveError,
    ObjectiveMismatchError,
    PolytopeViolationError,
)
from .groups import FiniteAlphabet, PermGroup
from .invariant import enumerate_invariant_vertices
from .ldp_geometry import (
    DEFAULT_ENUM_CAP_M,
    SubsetOrbit,
    WeightPolytope,
    WeightVector,
    enumerate_polytope_vertices,
    extremal_channel,
    full_polytope,
    in_weight_polytope,
    require_enum_cap,
    staircase_numerators,
    weight_polytope,
)
from .rationals import as_fraction, integer_matrix
from .simplex import solve_standard_lp

CERT_EXACT = "exact"
CERT_BOUND = "bound_only"

# Float-valued objectives are compared with this absolute tolerance.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PutResult:
    value: Fraction | float
    argmin_weights: WeightVector
    method: str
    certificate: str

    @cached_property
    def argmin_channel(self) -> Channel:
        """The extremal channel of `argmin_weights`, built on first read."""
        return extremal_channel(self.argmin_weights)


def _require_coefficient_count(coefficients: Sequence, m: int) -> None:
    n = (1 << m) - 2
    if len(coefficients) != n:
        raise ValueError(f"need {n} coefficients, got {len(coefficients)}")


def _form_costs(coefficients: Sequence, polytope: WeightPolytope) -> tuple[list[int], int, str]:
    """Read a per-subset linear form (indexed by mask - 1) on a polytope:
    per-orbit integer costs c over one denominator d > 0, so the
    objective at weights w is sum(w_orbit * c_orbit) / d, and the form's
    certificate.

    Every entry is read exactly, a float as the binary rational it
    holds, so both solvers optimise the same objective.  The form is
    scaled to integers once and its numerators are summed per orbit.
    The certificate is decided on the form as given: floats that agree
    within FLOAT_TOLERANCE on every orbit still make it "exact".
    """
    _require_coefficient_count(coefficients, polytope.group.alphabet.size)
    given = [u if isinstance(u, float) else as_fraction(u) for u in coefficients]
    (numerators,), d = integer_matrix([[Fraction(u) if isinstance(u, float) else u
                                        for u in given]])
    costs = [sum(numerators[mask - 1] for mask in orbit.masks) for orbit in polytope.orbits]
    exact = constant_on_orbits(given, polytope.orbits)
    return costs, d, CERT_EXACT if exact else CERT_BOUND


def _agree(lhs, rhs) -> bool:
    """Equality: exact unless one side is a float, which agrees within
    FLOAT_TOLERANCE."""
    if isinstance(lhs, float) or isinstance(rhs, float):
        return abs(float(lhs) - float(rhs)) <= FLOAT_TOLERANCE
    return lhs == rhs


def put_by_vertex_enumeration(objective: Callable[[Channel], Fraction | float],
                              alphabet: FiniteAlphabet, level,
                              group: PermGroup | None = None, *,
                              coefficients: Sequence | None = None,
                              cap: int = DEFAULT_ENUM_CAP_M) -> PutResult:
    """Minimize the objective over the polytope vertices.

    With a group, only the collapsed polytope's vertices are scanned.
    `cap` bounds the full polytope only; a grouped scan is bounded by its
    number of candidate supports instead.

    `coefficients` is the objective's per-subset linear form (indexed by
    mask - 1), read exactly as `put_by_lp` reads it: floats as the
    binary rationals they hold.  With it, each vertex is scored as u.w
    in integers (the form's per-orbit numerators against the vertices'
    numerators, over their one shared denominator), only the argmin gets
    a channel, and the objective runs once there and must equal the
    score (ObjectiveMismatchError otherwise); the result is exact when u
    is constant on every subset orbit.  Without it, the result is only a
    bound.
    """
    level = as_level(level)
    grouped = group is not None and not group.is_trivial
    if grouped:
        vertices = enumerate_invariant_vertices(group, level)
    else:
        vertices = enumerate_polytope_vertices(alphabet, level, cap=cap)
    method = "vertex_enumeration_grouped" if grouped else "vertex_enumeration"
    if coefficients is None:
        scores = [objective(extremal_channel(v)) for v in vertices]
        best = min(range(len(scores)), key=lambda i: (scores[i], i))
        return PutResult(scores[best], vertices[best], method, CERT_BOUND)
    costs, d, certificate = _form_costs(coefficients, vertices[0].polytope)
    scores = [sum(map(mul, v.numerators, costs)) for v in vertices]
    best = min(range(len(scores)), key=lambda i: (scores[i], i))
    value = Fraction(scores[best], d * vertices[best].denominator)
    result = PutResult(value, vertices[best], method, certificate)
    direct = objective(result.argmin_channel)
    if not _agree(direct, value):
        raise ObjectiveMismatchError(f"objective {direct} at the argmin channel "
                                     f"differs from its linear-form score {value}")
    return result


def constant_on_orbits(per_subset: Sequence, orbits: Sequence[SubsetOrbit]) -> bool:
    """Whether per-subset values (indexed by mask - 1) agree on every orbit:
    exactly, except that a float agrees within FLOAT_TOLERANCE.

    For an objective linear in the subset weights this is exactly when
    the group's orbit polytope holds its optimum: averaging any weights
    over the group then keeps their value.
    """
    if {*map(type, per_subset)} == {Fraction}:
        # Fractions are kept in lowest terms, so two are equal exactly when
        # their integer ratios are, and tuples of ints compare without
        # Fraction.__eq__.
        ratios = [u.as_integer_ratio() for u in per_subset]
        return all(ratios[mask - 1] == rep for orbit in orbits
                   for rep in (ratios[orbit.representative - 1],) for mask in orbit.masks)
    return all(_agree(per_subset[mask - 1], per_subset[orbit.representative - 1])
               for orbit in orbits for mask in orbit.masks)


def put_by_lp(coefficients: Sequence, alphabet: FiniteAlphabet, level,
              group: PermGroup | None = None,
              cap: int = DEFAULT_ENUM_CAP_M) -> PutResult:
    """Minimize an objective given by per-subset linear coefficients.

    The coefficients are read exactly, as the vertex sweep reads its
    form: a float is the binary rational it holds, so the simplex path
    stays exact and deterministic whatever the source of the numbers,
    and the sweep reaches the same value.  With a group the optimum over
    its orbit polytope is exact only when the coefficients are constant
    on every subset orbit; otherwise it is an upper bound.

    The simplex starts at randomized response, which every group leaves
    invariant: row i's basic column is the subset orbit of the singletons
    of letter orbit i.  For t > 1 that basis is proportional to
    (t - 1) I + J diag(|L|) over the letter orbits L, so it is
    nonsingular (each leading block too), and its point is >= 0.  At
    t = 1 every row is the same, so only row 0 is kept, started at the
    orbit of mask 1.
    """
    level = as_level(level)
    grouped = group is not None and not group.is_trivial
    if grouped:
        polytope = weight_polytope(group, level)
    else:
        require_enum_cap(alphabet.size, cap)
        polytope = full_polytope(alphabet, level)
    rows = polytope.rows
    if level.t == 1:
        rows, basis = rows[:1], [polytope.orbit_index[0]]
    else:
        index = polytope.group.alphabet.index
        basis = [polytope.orbit_index[(1 << index(lo[0])) - 1]
                 for lo in polytope.letter_orbits]
    costs, d, certificate = _form_costs(coefficients, polytope)
    res = solve_standard_lp(rows, [polytope.denominator] * len(rows), costs, basis)
    weights = WeightVector.of_values(polytope, res.x)
    return PutResult(value=res.value / d, argmin_weights=weights,
                     method="lp_grouped" if grouped else "lp", certificate=certificate)


def put_transitive_closed_form(values: Sequence, group: PermGroup, level) -> PutResult:
    """Minimize over the collapsed simplex of a transitive group.

    Each subset orbit is a vertex: its one membership coefficient c / d
    gives it weight d / c.  `values[mask - 1]` is the objective at the
    pure channel on mask's orbit, computed from mask alone; values that
    differ within an orbit raise ValueError, since the orbit minimum is
    then not achieved by its argmin channel.  The values must come from
    an objective that is data-processing monotone and affine over direct
    sums (a Bayes risk), so that the orbit minimum is the optimum over
    all private channels.
    """
    level = as_level(level)
    polytope = weight_polytope(group, level)
    if len(polytope.letter_orbits) != 1:
        raise NotTransitiveError("the closed form needs a transitive group")
    _require_coefficient_count(values, group.alphabet.size)
    if not constant_on_orbits(values, polytope.orbits):
        raise ValueError("closed-form values differ within a subset orbit")
    orbit_values = [values[orbit.representative - 1] for orbit in polytope.orbits]
    best = min(range(len(orbit_values)), key=lambda i: (orbit_values[i], i))
    argmin = WeightVector(polytope, tuple(polytope.denominator if i == best else 0
                                          for i in range(len(orbit_values))),
                          polytope.rows[0][best])
    return PutResult(value=orbit_values[best], argmin_weights=argmin,
                     method="transitive_closed_form", certificate=CERT_EXACT)


def _sample_rng(seed, index: int) -> random.Random:
    """Per-sample generator: draws for sample i never depend on sample j."""
    return random.Random(f"{seed}:{index}")


def _random_counts(rng: random.Random, n: int) -> list[int]:
    """n random weights in 0..9, not all zero.

    Each weight is `rng.randint(0, 9)` drawn inline: randint draws 4 bits
    and redraws values of 10 and above, so this consumes the generator
    exactly as randint does.
    """
    getrandbits = rng.getrandbits
    raw = []
    for _ in range(n):
        r = getrandbits(4)
        while r >= 10:
            r = getrandbits(4)
        raw.append(r)
    if not any(raw):
        raw[rng.randrange(n)] = 1
    return raw


def random_private_channel(rng: random.Random, vertices: Sequence[WeightVector]) -> Channel:
    """A random channel satisfying the privacy constraint of `vertices`,
    the full polytope's vertex list over its one shared denominator (as
    `enumerate_polytope_vertices` gives it).

    A random convex combination of the polytope vertices gives a maximal
    channel of its nonzero-weight subsets: counts c_k on the picked
    vertices mix their numerators as sum c_k * n_k, over d = sum(c) times
    the vertices' denominator, and with t = p / q its staircase rows lie
    over d * q.  Two times in three a random stochastic map then
    post-processes it into a fresh alphabet of at most 2^m outputs, so
    the audit covers non-maximal channels too.  Column S of the map is
    random counts over their sum s_S; every subset draws its column, in
    mask order, and the live rows are multiplied, over lcm(s_S) * d * q.
    Either way the sample is built as one Channel.
    """
    polytope = vertices[0].polytope
    picks = rng.sample(range(len(vertices)), k=min(len(vertices), rng.randint(1, 3)))
    counts = _random_counts(rng, len(picks))
    d = sum(counts) * vertices[0].denominator
    mixed = [sum(map(mul, counts, col)) for col in zip(*(vertices[k].numerators for k in picks))]
    if not in_weight_polytope(WeightVector(polytope, tuple(mixed), d)):
        raise PolytopeViolationError("a mixture of vertices left the weight polytope")
    masks, staircase = staircase_numerators(polytope, mixed)
    d *= polytope.level.t.denominator
    if rng.random() >= Fraction(2, 3):
        return Channel(input_alphabet=polytope.group.alphabet,
                       output_alphabet=FiniteAlphabet(masks),
                       numerators=staircase, denominator=d)
    n_out = rng.randint(1, len(polytope.orbit_index) + 2)
    cols = [_random_counts(rng, n_out) for _ in polytope.orbit_index]
    cols = [cols[mask - 1] for mask in masks]
    scale = lcm(*map(sum, cols))
    post = [[v * (scale // sum(col)) for v in col] for col in cols]
    by_input = list(zip(*staircase))
    numerators = tuple(tuple(sum(map(mul, coeffs, col)) for col in by_input)
                       for coeffs in zip(*post))
    return Channel(input_alphabet=polytope.group.alphabet,
                   output_alphabet=FiniteAlphabet(tuple(range(n_out))),
                   numerators=numerators, denominator=scale * d)


@dataclass(frozen=True)
class AuditReport:
    """`worst_sample` is the first index at `min_gap` (None without samples)."""

    min_gap: Fraction | float | None
    worst_sample: int | None


def random_channel_audit(objective: Callable[[Channel], Fraction | float],
                         alphabet: FiniteAlphabet, level, *,
                         samples: int, seed, baseline_value,
                         tolerance=0, cap: int = DEFAULT_ENUM_CAP_M) -> AuditReport:
    """Check that no sampled private channel beats the claimed optimum.

    Sampling is seed-deterministic per index, so reruns see the exact
    same channels, and sample i alone is redrawn by _sample_rng(seed, i).
    A violation raises AuditFailureError carrying the offending channel
    and its sample index.  The vertex list is read once per audit.  A
    negative or non-finite tolerance raises ValueError.
    """
    if not 0 <= tolerance < inf:
        raise ValueError(f"the audit tolerance must be finite and nonnegative, got {tolerance}")
    level = as_level(level)
    vertices = enumerate_polytope_vertices(alphabet, level, cap)
    min_gap = worst = None
    for i in range(samples):
        rng = _sample_rng(seed, i)
        q = random_private_channel(rng, vertices)
        gap = objective(q) - baseline_value
        if min_gap is None or gap < min_gap:
            min_gap, worst = gap, i
        if gap < -tolerance:
            from .serialize import channel_to_json
            raise AuditFailureError(
                f"sample {i} beat the claimed optimum by {-gap}",
                gap=gap, channel_json=channel_to_json(q), sample_index=i)
    return AuditReport(min_gap=min_gap, worst_sample=worst)
