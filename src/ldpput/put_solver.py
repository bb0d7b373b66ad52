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
certificate is.  Spot checks on random instances can be requested to
catch wrong attestations early.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .channels import Channel, as_level, compose, direct_sum, apply_group_element
from .errors import AttestationFailedError, AuditFailureError, DimensionCapError, NotTransitiveError
from .groups import FiniteAlphabet, PermGroup, natural_action, subset_action
from .invariant import enumerate_invariant_vertices, transitive_vertex_weight
from .ldp_geometry import (
    DEFAULT_ENUM_CAP_M,
    SubsetOrbit,
    WeightVector,
    enumerate_polytope_vertices,
    extremal_channel,
    full_polytope,
    weight_polytope,
)
from .rationals import as_fraction
from .simplex import solve_standard_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)

CERT_EXACT = "exact"
CERT_BOUND = "bound_only"
CERT_EQUALIZER = "equalizer_certified"


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


def _certificate(traits: ObjectiveTraits, grouped: bool,
                 equalizer_passed: bool | None) -> str:
    exact = traits.concave and (not grouped or
                                (traits.group_invariant and
                                 (traits.direct_sum_affine or traits.direct_sum_quasiconvex)))
    if exact:
        return CERT_EXACT
    if equalizer_passed:
        return CERT_EQUALIZER
    return CERT_BOUND


def put_by_vertex_enumeration(objective: Callable[[Channel], Fraction | float],
                              alphabet: FiniteAlphabet, level,
                              group: PermGroup | None = None, *,
                              traits: ObjectiveTraits,
                              cap: int = DEFAULT_ENUM_CAP_M,
                              equalizer: Callable[[Channel], bool] | None = None,
                              spot_check_rng: random.Random | None = None) -> PutResult:
    """Minimize the objective over the polytope vertices.

    With a group, only the collapsed polytope's vertices are scanned;
    that requires the objective to be attested group-invariant and
    mixture-compatible, since otherwise the reduction is unsound.
    """
    level = as_level(level)
    if spot_check_rng is not None:
        spot_check_traits(objective, alphabet, level, traits, group=group,
                          rng=spot_check_rng)
    grouped = group is not None and group.order > 1
    if grouped:
        if not (traits.group_invariant and
                (traits.direct_sum_affine or traits.direct_sum_quasiconvex)):
            raise ValueError("group reduction needs group_invariant plus a "
                             "direct-sum attestation")
        vertices = enumerate_invariant_vertices(group, level)
    else:
        vertices = enumerate_polytope_vertices(alphabet, level, cap=cap)
    channels = [extremal_channel(v) for v in vertices]
    method = "vertex_enumeration_grouped" if grouped else "vertex_enumeration"
    values = [objective(q) for q in channels]
    best = min(range(len(values)), key=lambda i: (values[i], i))
    equalizer_passed = None
    if equalizer is not None and not traits.concave:
        equalizer_passed = bool(equalizer(channels[best]))
    return PutResult(value=values[best],
                     argmin_weights=vertices[best],
                     argmin_channel=channels[best],
                     method=method,
                     certificate=_certificate(traits, grouped, equalizer_passed),
                     table=tuple(zip(vertices, values)))


def put_by_lp(coefficients: Sequence, alphabet: FiniteAlphabet, level,
              group: PermGroup | None = None,
              cap: int = DEFAULT_ENUM_CAP_M) -> PutResult:
    """Minimize an objective given by per-subset linear coefficients.

    Float coefficients are converted to exact rationals (binary floats
    are rationals), so the simplex path stays exact and deterministic
    whatever the source of the numbers.
    """
    level = as_level(level)
    m = alphabet.size
    n = (1 << m) - 2
    if len(coefficients) != n:
        raise ValueError(f"need {n} coefficients, got {len(coefficients)}")
    exact_u = [Fraction(u) if isinstance(u, float) else as_fraction(u)
               for u in coefficients]
    grouped = group is not None and group.order > 1
    if grouped:
        polytope = weight_polytope(group, level)
    elif m > cap:
        raise DimensionCapError(f"LP column count capped at m <= {cap}")
    else:
        polytope = full_polytope(alphabet, level)
    cost = [sum((exact_u[mask - 1] for mask in orbit.masks), _ZERO)
            for orbit in polytope.orbits]
    res = solve_standard_lp([list(row) for row in polytope.rows],
                            [_ONE] * len(polytope.rows), cost)
    weights = WeightVector(polytope=polytope, values=tuple(res.x))
    return PutResult(value=res.value, argmin_weights=weights,
                     argmin_channel=extremal_channel(weights),
                     method="lp_grouped" if grouped else "lp",
                     certificate=CERT_EXACT)


def put_transitive_closed_form(per_orbit_value: Callable[[SubsetOrbit, Fraction],
                                                         Fraction | float],
                               group: PermGroup, level, *,
                               traits: ObjectiveTraits,
                               equalizer: Callable[[Channel], bool] | None = None
                               ) -> PutResult:
    """Minimize over the collapsed simplex of a transitive group.

    Each subset orbit is a vertex with a closed-form weight; the caller
    supplies the objective value at a pure orbit channel as a function
    of (orbit, weight).
    """
    level = as_level(level)
    polytope = weight_polytope(group, level)
    if len(polytope.letter_orbits) != 1:
        raise NotTransitiveError("the closed form needs a transitive group")
    entries = []
    for idx, orbit in enumerate(polytope.orbits):
        weight = transitive_vertex_weight(group, orbit, level)
        values = tuple(weight if j == idx else _ZERO for j in range(len(polytope.orbits)))
        weights = WeightVector(polytope=polytope, values=values)
        entries.append((orbit, weights, per_orbit_value(orbit, weight)))
    best = min(range(len(entries)), key=lambda i: (entries[i][2], i))
    _, best_weights, best_value = entries[best]
    channel = extremal_channel(best_weights)
    equalizer_passed = None
    if equalizer is not None and not traits.concave:
        equalizer_passed = bool(equalizer(channel))
    return PutResult(value=best_value,
                     argmin_weights=best_weights,
                     argmin_channel=channel,
                     method="transitive_closed_form",
                     certificate=_certificate(traits, True, equalizer_passed),
                     table=tuple((orbit, value) for orbit, _, value in entries))


def _sample_rng(seed, index: int) -> random.Random:
    """Per-sample generator: draws for sample i never depend on sample j."""
    return random.Random(f"{seed}:{index}")


def _random_distribution(rng: random.Random, n: int, scale: int = 9) -> list[Fraction]:
    raw = [rng.randint(0, scale) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def random_polytope_point(rng: random.Random, alphabet: FiniteAlphabet, level,
                          cap: int = DEFAULT_ENUM_CAP_M) -> WeightVector:
    """A random convex combination of the polytope vertices, exact."""
    level = as_level(level)
    vertices = enumerate_polytope_vertices(alphabet, level, cap=cap)
    picks = rng.sample(range(len(vertices)), k=min(len(vertices),
                                                   rng.randint(1, 3)))
    mix = _random_distribution(rng, len(picks))
    values = [_ZERO] * len(vertices[0].values)
    for p, idx in zip(mix, picks):
        for j, v in enumerate(vertices[idx].values):
            values[j] += p * v
    return WeightVector(polytope=vertices[0].polytope, values=tuple(values))


def random_post_processing(rng: random.Random, channel: Channel,
                           max_extra_outputs: int = 2) -> Channel:
    """Compose with a random exact stochastic map into a fresh alphabet."""
    n_in = channel.num_outputs
    n_out = rng.randint(1, n_in + max_extra_outputs)
    cols = [_random_distribution(rng, n_out) for _ in range(n_in)]
    rows = tuple(tuple(cols[y][z] for y in range(n_in)) for z in range(n_out))
    post = Channel(input_alphabet=channel.output_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(range(n_out))),
                   rows=rows)
    return compose(post, channel)


def random_private_channel(rng: random.Random, alphabet: FiniteAlphabet, level,
                           cap: int = DEFAULT_ENUM_CAP_M) -> Channel:
    """A random channel satisfying the privacy constraint.

    Random conic mixtures of staircase rows (via polytope points) give
    maximal channels; a random post-processing then pushes the sample
    into the interior, so the audit covers non-maximal channels too.
    """
    q = extremal_channel(random_polytope_point(rng, alphabet, level, cap=cap))
    if rng.random() < Fraction(2, 3):
        q = random_post_processing(rng, q)
    return q


@dataclass(frozen=True)
class AuditReport:
    samples: int
    min_gap: Fraction | float | None
    passed: bool


def random_channel_audit(objective: Callable[[Channel], Fraction | float],
                         alphabet: FiniteAlphabet, level, *,
                         samples: int, seed, baseline_value,
                         tolerance=0, cap: int = DEFAULT_ENUM_CAP_M) -> AuditReport:
    """Check that no sampled private channel beats the claimed optimum.

    Sampling is seed-deterministic per index, so reruns see the exact
    same channels.  A violation raises AuditFailureError carrying the
    offending channel.
    """
    level = as_level(level)
    min_gap = None
    for i in range(samples):
        rng = _sample_rng(seed, i)
        q = random_private_channel(rng, alphabet, level, cap=cap)
        gap = objective(q) - baseline_value
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if gap < -tolerance:
            from .serialize import channel_to_json
            raise AuditFailureError(
                f"sample {i} beat the claimed optimum by {-gap}",
                gap=gap, channel_json=channel_to_json(q))
    return AuditReport(samples=samples, min_gap=min_gap, passed=True)


def spot_check_traits(objective: Callable[[Channel], Fraction | float],
                      alphabet: FiniteAlphabet, level, traits: ObjectiveTraits,
                      group: PermGroup | None = None, *,
                      rng: random.Random, trials: int = 3,
                      tolerance: float = 1e-9) -> None:
    """Randomized sanity check of attested objective structure.

    Exact values are compared exactly; float-valued objectives get the
    given tolerance.  Failures raise AttestationFailedError: a wrong
    attestation would silently produce wrong certificates downstream.
    """
    level = as_level(level)

    def close(lhs, rhs, cmp) -> bool:
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            return cmp(lhs, rhs, 0)
        return cmp(float(lhs), float(rhs), tolerance)

    ge = lambda a, b, tol: a >= b - tol
    eq = lambda a, b, tol: abs(a - b) <= tol
    le = lambda a, b, tol: a <= b + tol

    for _ in range(trials):
        q1 = extremal_channel(random_polytope_point(rng, alphabet, level))
        q2 = extremal_channel(random_polytope_point(rng, alphabet, level))
        if traits.data_processing:
            degraded = random_post_processing(rng, q1)
            if not close(objective(degraded), objective(q1), ge):
                raise AttestationFailedError("data-processing attestation failed")
        lam = Fraction(rng.randint(0, 4), 4)
        if traits.direct_sum_affine or traits.direct_sum_quasiconvex:
            mixed = direct_sum([lam, 1 - lam], [q1, q2])
            v1, v2, vm = objective(q1), objective(q2), objective(mixed)
            if traits.direct_sum_affine:
                target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                    else float(lam) * float(v1) + float(1 - lam) * float(v2)
                if not close(vm, target, eq):
                    raise AttestationFailedError("direct-sum affinity attestation failed")
            if traits.direct_sum_quasiconvex:
                if not close(vm, max(v1, v2), le):
                    raise AttestationFailedError("direct-sum quasiconvexity attestation failed")
        if traits.concave:
            rows = tuple(tuple(lam * a + (1 - lam) * b for a, b in zip(r1, r2))
                         for r1, r2 in zip(q1.rows, q2.rows))
            blend = Channel(input_alphabet=q1.input_alphabet,
                            output_alphabet=q1.output_alphabet, rows=rows)
            v1, v2 = objective(q1), objective(q2)
            target = lam * v1 + (1 - lam) * v2 if isinstance(v1, Fraction) \
                else float(lam) * float(v1) + float(1 - lam) * float(v2)
            if not close(objective(blend), target, ge):
                raise AttestationFailedError("concavity attestation failed")
        if traits.group_invariant and group is not None and group.order > 1:
            g = group.elements[rng.randrange(group.order)]
            sigma = subset_action(natural_action(group))
            moved = apply_group_element(g, sigma, q1)
            if not close(objective(moved), objective(q1), eq):
                raise AttestationFailedError("group-invariance attestation failed")
