"""Geometry of maximal private channels: staircase rows, the weight
polytope, and extreme directions of the privacy cone.

Subsets of the input alphabet are bitmasks over letter positions, in
ascending order 1 .. 2^m - 2 (nonempty proper subsets only).  A
permutation group on the alphabet splits the subsets and the letters
into orbits; the weight polytope has one weight per subset orbit and
one equality per letter orbit.  The full polytope is the trivial
group's, where every orbit is a single subset or letter.  All of it is
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .channels import Channel, DominanceWitness, PrivacyLevel, as_level, require_ldp
from .errors import (
    DecompositionInfeasibleError,
    DimensionCapError,
    NotMaximalError,
    PolytopeViolationError,
    RepresentativeMismatchError,
    ZeroVectorError,
)
from .groups import (
    FiniteAlphabet,
    PermGroup,
    all_subset_masks,
    mask_to_positions,
    natural_action,
    orbits,
    subset_action,
    symmetric_generators,
    trivial_group,
)
from .linalg import enumerate_basic_feasible
from .rationals import as_fraction
from .simplex import feasible_point

DEFAULT_ENUM_CAP_M = 5

_ZERO = Fraction(0)
_ONE = Fraction(1)


def staircase_row(mask: int, m: int, t: Fraction) -> tuple[Fraction, ...]:
    """Row vector with t at positions in the subset and 1 elsewhere."""
    return tuple(t if mask >> x & 1 else _ONE for x in range(m))


# -- orbits -------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetOrbit:
    """An orbit of subsets under the induced action, masks ascending."""

    masks: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.masks[0]

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def subset_size(self) -> int:
        return len(mask_to_positions(self.masks[0]))


def input_orbits(group: PermGroup) -> tuple[tuple, ...]:
    """Orbits of the group on its own letters."""
    return orbits(natural_action(group))


def subset_orbits(group: PermGroup) -> tuple[SubsetOrbit, ...]:
    """Orbits of nonempty proper subsets, ordered by smallest member."""
    return tuple(SubsetOrbit(masks=orbit)
                 for orbit in orbits(subset_action(natural_action(group))))


@dataclass(frozen=True)
class OrbitCoefficients:
    """Counts tying one input-letter orbit to one subset orbit."""

    incidence: int          # members of the subset orbit containing a fixed letter
    orbit_size: int
    subset_size: int
    column_sum: Fraction    # t * incidence + (orbit_size - incidence)


def orbit_coefficients(group: PermGroup, letter_orbit: tuple, orbit: SubsetOrbit,
                       level) -> OrbitCoefficients:
    """Incidence counts for one coefficient of the polytope's equalities.

    The count is the same for every letter in the orbit (the group maps
    witnesses to witnesses); this is checked rather than assumed.
    """
    t = as_level(level).t
    letters = group.alphabet.letters
    counts = []
    for letter in letter_orbit:
        pos = letters.index(letter)
        counts.append(sum(1 for mask in orbit.masks if mask >> pos & 1))
    if len(set(counts)) != 1:
        raise RepresentativeMismatchError(
            f"incidence count varies over the letter orbit: {counts}")
    r = counts[0]
    return OrbitCoefficients(incidence=r,
                             orbit_size=orbit.size,
                             subset_size=orbit.subset_size,
                             column_sum=t * r + (orbit.size - r))


# -- the weight polytope ------------------------------------------------------


@dataclass(frozen=True)
class WeightPolytope:
    """{w >= 0 : rows . w = 1} in orbit coordinates.

    One weight per subset orbit of `group` (in `orbits` order) and one
    equality row per input-letter orbit: a letter's weighted staircase
    column must sum to one.  `orbit_index[mask - 1]` is the position of
    the orbit holding `mask`.
    """

    group: PermGroup
    level: PrivacyLevel
    orbits: tuple[SubsetOrbit, ...]
    letter_orbits: tuple[tuple, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    orbit_index: tuple[int, ...]


def weight_polytope(group: PermGroup, level) -> WeightPolytope:
    """The weight polytope collapsed onto the group's orbits."""
    level = as_level(level)
    m = group.alphabet.size
    if m < 2:
        raise ValueError("the weight polytope needs at least two letters")
    orbs = subset_orbits(group)
    letter_orbits = input_orbits(group)
    rows = tuple(tuple(orbit_coefficients(group, lo, orbit, level).column_sum
                       for orbit in orbs)
                 for lo in letter_orbits)
    index = [0] * ((1 << m) - 2)
    for i, orbit in enumerate(orbs):
        for mask in orbit.masks:
            index[mask - 1] = i
    return WeightPolytope(group=group, level=level, orbits=orbs,
                          letter_orbits=letter_orbits, rows=rows,
                          orbit_index=tuple(index))


@lru_cache(maxsize=64)
def full_polytope(alphabet: FiniteAlphabet, level) -> WeightPolytope:
    """The full weight polytope: one weight per subset, one row per letter."""
    return weight_polytope(trivial_group(alphabet), level)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights, one per subset orbit of its polytope; a member
    when every equality row of the polytope sums to one."""

    polytope: WeightPolytope
    values: tuple[Fraction, ...]

    def __post_init__(self):
        expected = len(self.polytope.orbits)
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} weights, got {len(self.values)}")

    @property
    def input_alphabet(self) -> FiniteAlphabet:
        return self.polytope.group.alphabet

    @property
    def level(self) -> PrivacyLevel:
        return self.polytope.level

    @property
    def orbits(self) -> tuple[SubsetOrbit, ...]:
        return self.polytope.orbits

    def weight(self, mask: int) -> Fraction:
        """The weight on one subset: that of its orbit."""
        return self.values[self.polytope.orbit_index[mask - 1]]

    @property
    def support(self) -> tuple[int, ...]:
        """Subsets with nonzero weight, ascending."""
        index = self.polytope.orbit_index
        return tuple(mask for mask in range(1, len(index) + 1)
                     if self.values[index[mask - 1]] != 0)


def in_weight_polytope(weights: WeightVector) -> bool:
    """Membership test: weights nonnegative, every row sums exactly to one."""
    if any(v < 0 for v in weights.values):
        return False
    support = [(j, v) for j, v in enumerate(weights.values) if v]
    return all(sum((row[j] * v for j, v in support), _ZERO) == 1
               for row in weights.polytope.rows)


def extremal_channel(weights: WeightVector) -> Channel:
    """The maximal channel with one output row per subset.

    Row y is the staircase row of y scaled by the weight of its orbit;
    zero-weight rows are kept so the output alphabet always lists every
    subset, orbit by orbit (ascending under the trivial group).  Output
    letters are the subset bitmasks themselves.
    """
    if not in_weight_polytope(weights):
        raise PolytopeViolationError("weights are not a member of the weight polytope")
    m = weights.input_alphabet.size
    t = weights.level.t
    letters = []
    rows = []
    for orbit, w in zip(weights.orbits, weights.values):
        for mask in orbit.masks:
            letters.append(mask)
            rows.append(tuple(w * t if mask >> x & 1 else w for x in range(m)))
    return Channel(input_alphabet=weights.input_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(letters)),
                   rows=tuple(rows))


def subset_column_symmetries(m: int) -> list[tuple[int, ...]]:
    """S_m's generators acting on the full polytope's columns.

    Column j is the subset mask j + 1; a letter permutation maps it to
    the column of the permuted mask.  Letter rows permute alongside, so
    each generator maps the rows of the equality system onto themselves.
    """
    return [tuple(sum(1 << g(x) for x in mask_to_positions(mask)) - 1
                  for mask in all_subset_masks(m))
            for g in symmetric_generators(m)]


@lru_cache(maxsize=64)
def _basic_feasible_cached(rows: tuple[tuple[Fraction, ...], ...],
                           candidate_cap: int | None,
                           full_m: int | None) -> tuple[tuple[Fraction, ...], ...]:
    a_eq = [list(row) for row in rows]
    symmetries = subset_column_symmetries(full_m) if full_m else ()
    return tuple(sorted(enumerate_basic_feasible(a_eq, [_ONE] * len(rows),
                                                 candidate_cap=candidate_cap,
                                                 symmetries=symmetries)))


def polytope_vertices(polytope: WeightPolytope,
                      candidate_cap: int | None = None) -> list[WeightVector]:
    """All vertices of a weight polytope, exactly, sorted.

    Support enumeration over the orbit columns, memoised on the
    equality system; candidate_cap bounds the number of candidate
    supports.  The full polytope (trivial group) is S_m-invariant, so
    its scan solves one support per S_m orbit of supports and maps each
    solution around its orbit; a grouped polytope scans every support.
    """
    full_m = polytope.group.alphabet.size if polytope.group.order == 1 else None
    return [WeightVector(polytope=polytope, values=values)
            for values in _basic_feasible_cached(polytope.rows, candidate_cap, full_m)]


def enumerate_polytope_vertices(alphabet: FiniteAlphabet, level,
                                cap: int = DEFAULT_ENUM_CAP_M) -> list[WeightVector]:
    """All vertices of the full weight polytope, exactly.

    Support enumeration over the 2^m - 2 columns: the candidates are
    the C(2^m - 2, m) supports (for t > 1), but only one per S_m orbit
    is solved, 1,738 of 142,506 at m = 5; the cap keeps it at desk
    scale (m <= 5 by default).  Results are sorted and deterministic.
    """
    require_enum_cap(alphabet.size, cap)
    return polytope_vertices(full_polytope(alphabet, as_level(level)))


def require_enum_cap(m: int, cap: int = DEFAULT_ENUM_CAP_M) -> None:
    """The full vertex enumeration's dimension cap."""
    if m > cap:
        raise DimensionCapError(f"vertex enumeration capped at m <= {cap}, got m = {m}")


# -- extreme directions and maximal channels ----------------------------------


def is_extreme_direction(v: Sequence, alphabet: FiniteAlphabet, level) -> int | None:
    """The subset behind an extreme ray, or None.

    Extreme rays of the privacy cone are exactly the positive multiples
    of staircase rows: value t*c on a nonempty proper subset Z, value c
    elsewhere.  Returns Z as a bitmask when v has that shape.  At t = 1
    the cone degenerates to the constant ray; the lowest singleton is
    returned as the canonical subset there.
    """
    t = as_level(level).t
    vals = [as_fraction(x) for x in v]
    if len(vals) != alphabet.size:
        raise ValueError("vector length must match the alphabet size")
    if all(x == 0 for x in vals):
        raise ZeroVectorError("the zero vector spans no ray")
    distinct = sorted(set(vals))
    if len(distinct) == 1:
        if t == 1 and distinct[0] > 0:
            return 1  # degenerate cone: every subset gives the same ray
        return None
    if len(distinct) != 2:
        return None
    lo, hi = distinct
    if lo <= 0 or hi != t * lo:
        return None
    mask = 0
    for x, val in enumerate(vals):
        if val == hi:
            mask |= 1 << x
    return mask


def ray_subsets(channel: Channel, level) -> list[int | None]:
    """The subset behind each row's extreme ray, row by row.

    A zero row maps to 0 (it is on no ray but leaves maximality
    intact); a nonzero row off every extreme ray maps to None.  A
    channel that violates the privacy constraint raises NotLdpError.
    """
    level = as_level(level)
    require_ldp(channel, level)
    return [0 if all(x == 0 for x in row)
            else is_extreme_direction(row, channel.input_alphabet, level)
            for row in channel.rows]


def canonical_weight_from_rays(channel: Channel, level: PrivacyLevel,
                               subsets: list[int | None]) -> WeightVector:
    """Gather a maximal channel's rows into its polytope representative,
    given the channel's ray_subsets (not rescanned).

    Rows proportional to the same staircase row pool their scales, so
    equivalent maximal channels (up to relabeling, zero rows, and row
    splits) map to the same weight vector.
    """
    if None in subsets:
        raise NotMaximalError("only maximal channels have a canonical weight")
    m = channel.input_alphabet.size
    totals = [_ZERO] * ((1 << m) - 2)
    for row, mask in zip(channel.rows, subsets):
        if mask:
            totals[mask - 1] += min(row)
    weights = WeightVector(polytope=full_polytope(channel.input_alphabet, level),
                           values=tuple(totals))
    if not in_weight_polytope(weights):
        raise PolytopeViolationError("gathered weights left the polytope; "
                                     "channel columns cannot be stochastic")
    return weights


def dominating_maximal(channel: Channel, level) -> tuple[Channel, DominanceWitness]:
    """A maximal channel above the given one, with the exact witness.

    Each nonzero row is split into a conic combination of staircase
    rows (a feasibility LP; one always exists inside the cone), the
    pieces are gathered by subset, and the bookkeeping of the split
    doubles as the post-processing witness.
    """
    level = as_level(level)
    require_ldp(channel, level)
    polytope = full_polytope(channel.input_alphabet, level)
    n = len(polytope.orbits)
    a_eq = [list(eq) for eq in polytope.rows]
    decompositions: list[list[Fraction]] = []
    for row in channel.rows:
        if all(x == 0 for x in row):
            decompositions.append([_ZERO] * n)
            continue
        sol = feasible_point(a_eq, list(row), n)
        if sol is None:
            raise DecompositionInfeasibleError("row is not a conic combination of "
                                               "staircase rows")
        decompositions.append(sol)
    totals = [sum((d[j] for d in decompositions), _ZERO) for j in range(n)]
    maximal = extremal_channel(WeightVector(polytope=polytope, values=tuple(totals)))
    w_rows = [[d[j] / totals[j] if totals[j] else _ZERO for j in range(n)]
              for d in decompositions]
    # Zero-weight subsets have zero rows in the maximal channel; their
    # witness columns can carry arbitrary mass, parked on the first output.
    for j in range(n):
        if totals[j] == 0:
            w_rows[0][j] = _ONE
    post = Channel(input_alphabet=maximal.output_alphabet,
                   output_alphabet=channel.output_alphabet,
                   rows=tuple(tuple(r) for r in w_rows))
    witness = DominanceWitness(base=maximal, derived=channel, post_processor=post)
    return maximal, witness
