"""Privacy-utility trade-off computation.

Three routes to the same number: scan the polytope vertices, solve an
exact LP when the objective is linear over subset weights, or read off
the closed form when a transitive group collapses the polytope to a
simplex.  A seeded audit hammers the claimed optimum with random
channels that never should beat it.

The solver does not prove anything about a caller's objective; the
caller attests its structure (data-processing monotone, affine or
quasiconvex over labeled mixtures, concave over plain mixtures,
group-invariant) and those attestations decide how strong the returned
certificate is: "exact" needs data processing and concavity, and a
group reduction is refused without invariance and a direct-sum
attestation.  They are checked only on request (`spot_check_rng`), on
random instances.  Every grouped "exact" rests instead on a per-subset
form checked by `constant_on_orbits`: the linear form of the sweep
(`coefficients=`) and of `put_by_lp`, and the closed form's values,
which it refuses unless constant on every orbit.  A grouped sweep
without a form is only a bound.  The sweep also checks its form
against the objective itself at its argmin channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .channels import Channel, as_level, compose, direct_sum, apply_group_element
from .errors import AttestationFailedError, AuditFailureError, DimensionCapError, NotTransitiveError
from .groups import FiniteAlphabet, PermGroup, natural_action, subset_action
from .invariant import enumerate_invariant_vertices
from .ldp_geometry import (
    DEFAULT_ENUM_CAP_M,
    SubsetOrbit,
    WeightPolytope,
    WeightVector,
    enumerate_polytope_vertices,
    extremal_channel,
    full_polytope,
    weight_polytope,
)
from .rationals import as_fraction, integer_matrix
from .simplex import solve_standard_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)

CERT_EXACT = "exact"
CERT_BOUND = "bound_only"
CERT_EQUALIZER = "equalizer_certified"

# Float-valued objectives are compared with this absolute tolerance.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ObjectiveTraits:
    """Caller attestations about the objective being minimized.

    data_processing: post-processing never lowers the value.
    direct_sum_affine: labeled mixtures average the value exactly.
    direct_sum_quasiconvex: labeled mixtures never exceed the max component.
    concave: plain (same-output) mixtures never fall below the average.
    group_invariant: relabeling by the supplied group preserves the value.
    """

    data_processing: bool = True
    direct_sum_affine: bool = False
    direct_sum_quasiconvex: bool = False
    concave: bool = False
    group_invariant: bool = False


BAYES_TRAITS = ObjectiveTraits(data_processing=True, direct_sum_affine=True,
                               direct_sum_quasiconvex=True, concave=True,
                               group_invariant=True)
MINIMAX_TRAITS = ObjectiveTraits(data_processing=True, direct_sum_affine=False,
                                 direct_sum_quasiconvex=True, concave=False,
                                 group_invariant=True)


@dataclass(frozen=True)
class PutResult:
    value: Fraction | float
    argmin_weights: WeightVector
    argmin_channel: Channel
    method: str
    certificate: str
    table: tuple = ()


def _certificate(traits: ObjectiveTraits,
                 equalizer: Callable[[Channel], bool] | None = None,
                 channel: Channel | None = None) -> str:
    """The certificate the attestations justify; the equalizer check on
    the argmin channel runs only when the result is not already exact."""
    if traits.data_processing and traits.concave:
        return CERT_EXACT
    if equalizer is not None and equalizer(channel):
        return CERT_EQUALIZER
    return CERT_BOUND


def _require_group_reduction(traits: ObjectiveTraits) -> None:
    """Optimizing over a group's orbit polytope is sound only for an
    objective attested group-invariant and direct-sum compatible."""
    if not (traits.group_invariant and
            (traits.direct_sum_affine or traits.direct_sum_quasiconvex)):
        raise ValueError("group reduction needs group_invariant plus a "
                         "direct-sum attestation")


def _require_coefficient_count(coefficients: Sequence, m: int) -> None:
    n = (1 << m) - 2
    if len(coefficients) != n:
        raise ValueError(f"need {n} coefficients, got {len(coefficients)}")


def _as_form(coefficients: Sequence) -> list:
    """A per-subset linear form: exact inputs as Fractions, floats kept."""
    return [u if isinstance(u, float) else as_fraction(u) for u in coefficients]


def _orbit_costs(per_subset: Sequence, orbits: Sequence[SubsetOrbit]) -> list:
    """Per-orbit cost of a per-subset linear form (indexed by mask - 1):
    the objective at weights w is the sum of w_orbit * cost_orbit."""
    return [sum((per_subset[mask - 1] for mask in orbit.masks), _ZERO)
            for orbit in orbits]


def _close(lhs, rhs, cmp) -> bool:
    """cmp(lhs, rhs, tolerance): exact for two Fractions, otherwise on
    floats within FLOAT_TOLERANCE."""
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return cmp(lhs, rhs, 0)
    return cmp(float(lhs), float(rhs), FLOAT_TOLERANCE)


_ge = lambda a, b, tol: a >= b - tol
_eq = lambda a, b, tol: abs(a - b) <= tol
_le = lambda a, b, tol: a <= b + tol


def _vertex_result(vertices: Sequence[WeightVector], values: Sequence, best: int,
                   channel: Channel, method: str, certificate: str) -> PutResult:
    """The result at vertices[best]; the table pairs each vertex with its value."""
    return PutResult(value=values[best], argmin_weights=vertices[best],
                     argmin_channel=channel, method=method, certificate=certificate,
                     table=tuple(zip(vertices, values)))


def put_by_vertex_enumeration(objective: Callable[[Channel], Fraction | float],
                              alphabet: FiniteAlphabet, level,
                              group: PermGroup | None = None, *,
                              traits: ObjectiveTraits,
                              coefficients: Sequence | None = None,
                              cap: int = DEFAULT_ENUM_CAP_M,
                              equalizer: Callable[[Channel], bool] | None = None,
                              spot_check_rng: random.Random | None = None) -> PutResult:
    """Minimize the objective over the polytope vertices.

    With a group, only the collapsed polytope's vertices are scanned;
    that requires the objective to be attested group-invariant and
    mixture-compatible, since otherwise the reduction is unsound.  `cap`
    bounds the full polytope only; a grouped scan is bounded by its
    number of candidate supports instead.

    `coefficients` is the objective's per-subset linear form (indexed by
    mask - 1, as `put_by_lp` takes it).  With it, each vertex is scored
    as u.w, only the argmin gets a channel, and the objective runs once
    there and must equal the score (AttestationFailedError otherwise);
    a grouped result is exact only when u is constant on every subset
    orbit.  Without it, a grouped result is only a bound.
    """
    level = as_level(level)
    if coefficients is not None:
        _require_coefficient_count(coefficients, alphabet.size)
        coefficients = _as_form(coefficients)
    if spot_check_rng is not None:
        spot_check_traits(objective, alphabet, level, traits, group=group,
                          rng=spot_check_rng)
    grouped = group is not None and group.order > 1
    if grouped:
        _require_group_reduction(traits)
        vertices = enumerate_invariant_vertices(group, level)
    else:
        vertices = enumerate_polytope_vertices(alphabet, level, cap=cap)
    method = "vertex_enumeration_grouped" if grouped else "vertex_enumeration"
    if coefficients is None:
        channels = [extremal_channel(v) for v in vertices]
        values = [objective(q) for q in channels]
        best = min(range(len(values)), key=lambda i: (values[i], i))
        best_channel = channels[best]
        invariant = not grouped
    else:
        orbits = vertices[0].orbits
        costs = _orbit_costs(coefficients, orbits)
        values = [sum((w * c for w, c in zip(v.values, costs) if w), _ZERO)
                  for v in vertices]
        best = min(range(len(values)), key=lambda i: (values[i], i))
        best_channel = extremal_channel(vertices[best])
        direct = objective(best_channel)
        if not _close(direct, values[best], _eq):
            raise AttestationFailedError(f"objective {direct} at the argmin channel "
                                         f"differs from its linear-form score {values[best]}")
        invariant = constant_on_orbits(coefficients, orbits)
    certificate = _certificate(traits, equalizer, best_channel) if invariant else CERT_BOUND
    return _vertex_result(vertices, values, best, best_channel, method, certificate)


def constant_on_orbits(per_subset: Sequence, orbits: Sequence[SubsetOrbit]) -> bool:
    """Whether per-subset values (indexed by mask - 1) agree on every orbit,
    exactly for Fractions and within FLOAT_TOLERANCE for floats.

    For an objective linear in the subset weights this is exactly when
    the group's orbit polytope holds its optimum: averaging any weights
    over the group then keeps their value.
    """
    return all(_close(per_subset[mask - 1], per_subset[orbit.representative - 1], _eq)
               for orbit in orbits for mask in orbit.masks)


def put_by_lp(coefficients: Sequence, alphabet: FiniteAlphabet, level,
              group: PermGroup | None = None,
              cap: int = DEFAULT_ENUM_CAP_M) -> PutResult:
    """Minimize an objective given by per-subset linear coefficients.

    Float coefficients are converted to exact rationals (binary floats
    are rationals), so the simplex path stays exact and deterministic
    whatever the source of the numbers.  With a group the optimum over
    its orbit polytope is exact only when the coefficients are constant
    on every subset orbit; otherwise it is an upper bound.
    """
    level = as_level(level)
    m = alphabet.size
    _require_coefficient_count(coefficients, m)
    given = _as_form(coefficients)
    exact_u = [Fraction(u) for u in given]
    grouped = group is not None and group.order > 1
    if grouped:
        polytope = weight_polytope(group, level)
    elif m > cap:
        raise DimensionCapError(f"LP column count capped at m <= {cap}")
    else:
        polytope = full_polytope(alphabet, level)
    res = solve_standard_lp([list(row) for row in polytope.rows],
                            [_ONE] * len(polytope.rows),
                            _orbit_costs(exact_u, polytope.orbits))
    weights = WeightVector(polytope=polytope, values=tuple(res.x))
    return PutResult(value=res.value, argmin_weights=weights,
                     argmin_channel=extremal_channel(weights),
                     method="lp_grouped" if grouped else "lp",
                     certificate=CERT_EXACT if constant_on_orbits(given, polytope.orbits)
                     else CERT_BOUND)


def put_transitive_closed_form(values: Sequence, group: PermGroup, level, *,
                               traits: ObjectiveTraits) -> PutResult:
    """Minimize over the collapsed simplex of a transitive group.

    Each subset orbit is a vertex: its one membership coefficient c
    gives it weight 1/c.  `values[mask - 1]` is the objective at the
    pure channel on mask's orbit, computed from mask alone; values that
    differ within an orbit raise ValueError, since the orbit minimum is
    then not achieved by its argmin channel.
    """
    _require_group_reduction(traits)
    level = as_level(level)
    polytope = weight_polytope(group, level)
    if len(polytope.letter_orbits) != 1:
        raise NotTransitiveError("the closed form needs a transitive group")
    _require_coefficient_count(values, group.alphabet.size)
    if not constant_on_orbits(values, polytope.orbits):
        raise ValueError("closed-form values differ within a subset orbit")
    n = len(polytope.orbits)
    vertices = [WeightVector(polytope=polytope,
                             values=tuple(_ONE / c if i == j else _ZERO for i in range(n)))
                for j, c in enumerate(polytope.rows[0])]
    orbit_values = [values[orbit.representative - 1] for orbit in polytope.orbits]
    best = min(range(n), key=lambda i: (orbit_values[i], i))
    return _vertex_result(vertices, orbit_values, best, extremal_channel(vertices[best]),
                          "transitive_closed_form", _certificate(traits))


def _sample_rng(seed, index: int) -> random.Random:
    """Per-sample generator: draws for sample i never depend on sample j."""
    return random.Random(f"{seed}:{index}")


def _random_counts(rng: random.Random, n: int) -> list[int]:
    """n random weights in 0..9, not all zero."""
    raw = [rng.randint(0, 9) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    return raw


@dataclass(frozen=True)
class IntegerVertices:
    """The full polytope's vertices: vertex k's weights are
    numerators[k] / denominator."""

    polytope: WeightPolytope
    numerators: tuple[list[int], ...]
    denominator: int


def integer_vertices(alphabet: FiniteAlphabet, level,
                     cap: int = DEFAULT_ENUM_CAP_M) -> IntegerVertices:
    """The vertex list of `enumerate_polytope_vertices`, as integers."""
    vertices = enumerate_polytope_vertices(alphabet, as_level(level), cap=cap)
    numerators, d = integer_matrix(v.values for v in vertices)
    return IntegerVertices(vertices[0].polytope, tuple(numerators), d)


def random_polytope_point(rng: random.Random, alphabet: FiniteAlphabet, level,
                          cap: int = DEFAULT_ENUM_CAP_M, *,
                          vertices: IntegerVertices | None = None) -> WeightVector:
    """A random convex combination of the polytope vertices, exact.

    `vertices` is `integer_vertices(alphabet, level, cap)`, read here
    when not given.  Count c_k on vertex k mixes the integer rows as
    sum c_k * n_k, over sum(c) times the vertices' denominator.
    """
    if vertices is None:
        vertices = integer_vertices(alphabet, level, cap)
    rows = vertices.numerators
    picks = rng.sample(range(len(rows)), k=min(len(rows), rng.randint(1, 3)))
    counts = _random_counts(rng, len(picks))
    d = sum(counts) * vertices.denominator
    mixed = [sum(c * rows[k][j] for c, k in zip(counts, picks))
             for j in range(len(rows[0]))]
    return WeightVector(polytope=vertices.polytope,
                        values=tuple(Fraction(n, d) for n in mixed))


def random_post_processing(rng: random.Random, channel: Channel) -> Channel:
    """Compose with a random exact stochastic map into a fresh alphabet
    of at most two more outputs than the channel has."""
    n_in = channel.num_outputs
    n_out = rng.randint(1, n_in + 2)
    cols = [_random_counts(rng, n_out) for _ in range(n_in)]
    rows = tuple(tuple(Fraction(cols[y][z], sum(cols[y])) for y in range(n_in))
                 for z in range(n_out))
    post = Channel(input_alphabet=channel.output_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(range(n_out))),
                   rows=rows)
    return compose(post, channel)


def random_private_channel(rng: random.Random, alphabet: FiniteAlphabet, level,
                           cap: int = DEFAULT_ENUM_CAP_M, *,
                           vertices: IntegerVertices | None = None) -> Channel:
    """A random channel satisfying the privacy constraint.

    Random conic mixtures of staircase rows (via polytope points) give
    maximal channels; a random post-processing then pushes the sample
    into the interior, so the audit covers non-maximal channels too.
    `vertices` is as for `random_polytope_point`.
    """
    q = extremal_channel(random_polytope_point(rng, alphabet, level, cap=cap,
                                               vertices=vertices))
    if rng.random() < Fraction(2, 3):
        q = random_post_processing(rng, q)
    return q


@dataclass(frozen=True)
class AuditReport:
    """`worst_sample` is the first index at `min_gap` (None without samples)."""

    samples: int
    min_gap: Fraction | float | None
    passed: bool
    worst_sample: int | None


def random_channel_audit(objective: Callable[[Channel], Fraction | float],
                         alphabet: FiniteAlphabet, level, *,
                         samples: int, seed, baseline_value,
                         tolerance=0, cap: int = DEFAULT_ENUM_CAP_M) -> AuditReport:
    """Check that no sampled private channel beats the claimed optimum.

    Sampling is seed-deterministic per index, so reruns see the exact
    same channels, and sample i alone is redrawn by _sample_rng(seed, i).
    A violation raises AuditFailureError carrying the offending channel
    and its sample index.  The vertex list is read once per audit.
    """
    level = as_level(level)
    vertices = integer_vertices(alphabet, level, cap)
    min_gap = worst = None
    for i in range(samples):
        rng = _sample_rng(seed, i)
        q = random_private_channel(rng, alphabet, level, cap=cap, vertices=vertices)
        gap = objective(q) - baseline_value
        if min_gap is None or gap < min_gap:
            min_gap, worst = gap, i
        if gap < -tolerance:
            from .serialize import channel_to_json
            raise AuditFailureError(
                f"sample {i} beat the claimed optimum by {-gap}",
                gap=gap, channel_json=channel_to_json(q), sample_index=i)
    return AuditReport(samples=samples, min_gap=min_gap, passed=True, worst_sample=worst)


def spot_check_traits(objective: Callable[[Channel], Fraction | float],
                      alphabet: FiniteAlphabet, level, traits: ObjectiveTraits,
                      group: PermGroup | None = None, *,
                      rng: random.Random, trials: int = 3) -> None:
    """Randomized sanity check of attested objective structure.

    Exact values are compared exactly; float-valued objectives get a
    tolerance of FLOAT_TOLERANCE.  Failures raise AttestationFailedError:
    a wrong attestation would silently produce wrong certificates
    downstream.
    """
    level = as_level(level)
    vertices = integer_vertices(alphabet, level)
    for _ in range(trials):
        q1 = extremal_channel(random_polytope_point(rng, alphabet, level, vertices=vertices))
        q2 = extremal_channel(random_polytope_point(rng, alphabet, level, vertices=vertices))
        if traits.data_processing:
            degraded = random_post_processing(rng, q1)
            if not _close(objective(degraded), objective(q1), _ge):
                raise AttestationFailedError("data-processing attestation failed")
        lam = Fraction(rng.randint(0, 4), 4)
        if traits.direct_sum_affine or traits.direct_sum_quasiconvex:
            mixed = direct_sum([lam, 1 - lam], [q1, q2])
            v1, v2, vm = objective(q1), objective(q2), objective(mixed)
            if traits.direct_sum_affine:
                target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                    else float(lam) * float(v1) + float(1 - lam) * float(v2)
                if not _close(vm, target, _eq):
                    raise AttestationFailedError("direct-sum affinity attestation failed")
            if traits.direct_sum_quasiconvex:
                if not _close(vm, max(v1, v2), _le):
                    raise AttestationFailedError("direct-sum quasiconvexity attestation failed")
        if traits.concave:
            rows = tuple(tuple(lam * a + (1 - lam) * b for a, b in zip(r1, r2))
                         for r1, r2 in zip(q1.rows, q2.rows))
            blend = Channel(input_alphabet=q1.input_alphabet,
                            output_alphabet=q1.output_alphabet, rows=rows)
            v1, v2 = objective(q1), objective(q2)
            target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                else float(lam) * float(v1) + float(1 - lam) * float(v2)
            if not _close(objective(blend), target, _ge):
                raise AttestationFailedError("concavity attestation failed")
        if traits.group_invariant and group is not None and group.order > 1:
            g = group.elements[rng.randrange(group.order)]
            sigma = subset_action(natural_action(group))
            moved = apply_group_element(g, sigma, q1)
            if not _close(objective(moved), objective(q1), _eq):
                raise AttestationFailedError("group-invariance attestation failed")
