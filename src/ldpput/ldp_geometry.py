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
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .channels import Channel, PrivacyLevel, as_level, require_ldp
from .errors import DimensionCapError, PolytopeViolationError, RepresentativeMismatchError
from .groups import (
    FiniteAlphabet,
    PermGroup,
    SubsetOrbit,
    TableAction,
    mask_images,
    orbits,
    symmetric_generators,
    trivial_group,
)
from .linalg import enumerate_basic_feasible
from .rationals import integer_matrix

DEFAULT_ENUM_CAP_M = 5
# Every path with a group splits all 2^m - 2 subsets into orbits: 65,534
# masks at m = 16, about 0.1 s for S_16.
GROUPED_CAP_M = 16

_ONE = Fraction(1)


def staircase_row(mask: int, m: int, t: Fraction) -> tuple[Fraction, ...]:
    """Row vector with t at positions in the subset and 1 elsewhere."""
    return tuple(t if mask >> x & 1 else _ONE for x in range(m))


# -- orbits -------------------------------------------------------------------


def input_orbits(group: PermGroup) -> tuple[tuple, ...]:
    """Orbits of the group on its own letters."""
    letters = group.alphabet.letters
    action = TableAction(carrier=range(len(letters)),
                         images=tuple(g.images for g in group.generators))
    return tuple(tuple(letters[p] for p in orbit) for orbit in orbits(action))


def subset_orbits(group: PermGroup) -> tuple[SubsetOrbit, ...]:
    """Orbits of nonempty proper subsets, ordered by smallest member; one
    group object builds them once (`PermGroup.subset_orbits`)."""
    return group.subset_orbits


# -- the weight polytope ------------------------------------------------------


@dataclass(frozen=True)
class WeightPolytope:
    """{w >= 0 : (rows / denominator) . w = 1} in orbit coordinates.

    One weight per subset orbit of `group` (in `orbits` order) and one
    equality row per input-letter orbit: a letter's weighted staircase
    column must sum to one.  The rows are integer numerators over one
    positive denominator (t's).  `orbit_index[mask - 1]` is the position
    of the orbit holding `mask`.
    """

    group: PermGroup
    level: PrivacyLevel
    orbits: tuple[SubsetOrbit, ...]
    letter_orbits: tuple[tuple, ...]
    rows: tuple[tuple[int, ...], ...]
    denominator: int
    orbit_index: tuple[int, ...]


def weight_polytope(group: PermGroup, level) -> WeightPolytope:
    """The weight polytope collapsed onto the group's orbits.

    Row i, column j is t * r + (|orbit j| - r) as its numerator
    p * r + q * (|orbit j| - r) over t = p / q, where r counts the members
    of subset orbit j that contain a letter of letter orbit i.  The count
    is the same for every letter in the orbit (the group maps witnesses to
    witnesses); this is checked rather than assumed.
    """
    level = as_level(level)
    m = group.alphabet.size
    if m < 2:
        raise ValueError("the weight polytope needs at least two letters")
    orbs = subset_orbits(group)
    letter_orbits = input_orbits(group)
    shifts = [[m * group.alphabet.index(letter) for letter in lo] for lo in letter_orbits]
    # Each mask with its bit x moved to bit m * x: summed over an orbit's
    # masks, m-bit field x counts the masks that contain letter x.
    spread, width = mask_images(range(0, m * m, m)), (1 << m) - 1
    p, q = level.t.numerator, level.t.denominator
    columns = []
    index = [0] * ((1 << m) - 2)
    for j, orbit in enumerate(orbs):
        fields = sum(map(spread.__getitem__, orbit.masks))
        size = orbit.size
        column = []
        for letter_shifts in shifts:
            counts = {fields >> s & width for s in letter_shifts}
            if len(counts) != 1:
                raise RepresentativeMismatchError(
                    f"incidence count varies over the letter orbit: {sorted(counts)}")
            r, = counts
            column.append(p * r + q * (size - r))
        columns.append(column)
        for mask in orbit.masks:
            index[mask - 1] = j
    return WeightPolytope(group=group, level=level, orbits=orbs,
                          letter_orbits=letter_orbits, rows=tuple(zip(*columns)),
                          denominator=q, orbit_index=tuple(index))


@lru_cache(maxsize=64)
def full_polytope(alphabet: FiniteAlphabet, level) -> WeightPolytope:
    """The full weight polytope: one weight per subset, one row per letter."""
    return weight_polytope(trivial_group(alphabet), level)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Weights, one per subset orbit of its polytope: weight j is
    numerators[j] / denominator.  A member when they are nonnegative and
    every equality row of the polytope sums to one.  Equality and hash
    go by value, whatever the denominator."""

    polytope: WeightPolytope
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        expected = len(self.polytope.orbits)
        if len(self.numerators) != expected:
            raise ValueError(f"expected {expected} weights, got {len(self.numerators)}")
        if self.denominator <= 0:
            raise ValueError(f"weight denominator must be positive, got {self.denominator}")

    @classmethod
    def of_values(cls, polytope: WeightPolytope, values: Sequence) -> "WeightVector":
        """The weight vector of exact values (Fractions or ints)."""
        (numerators,), d = integer_matrix([values])
        return cls(polytope, tuple(numerators), d)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The weights as exact Fractions, built on first read."""
        d = self.denominator
        return tuple(Fraction(v, d) for v in self.numerators)

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self.polytope == other.polytope and self.values == other.values

    def __hash__(self):
        return hash((self.polytope, self.values))

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
        return Fraction(self.numerators[self.polytope.orbit_index[mask - 1]], self.denominator)

    @property
    def support(self) -> tuple[int, ...]:
        """Subsets with nonzero weight, ascending."""
        index, n = self.polytope.orbit_index, self.numerators
        return tuple(mask for mask in range(1, len(index) + 1) if n[index[mask - 1]])


def in_weight_polytope(weights: WeightVector) -> bool:
    """Membership test: weights nonnegative, every row sums exactly to one.

    With weights n / d and the polytope's rows r / d_r, a row sums to one
    when r . n == d * d_r.
    """
    n, polytope = weights.numerators, weights.polytope
    target = weights.denominator * polytope.denominator
    return min(n) >= 0 and all(sum(map(mul, row, n)) == target for row in polytope.rows)


def staircase_numerators(polytope: WeightPolytope, n: Sequence[int]) -> tuple[tuple, tuple]:
    """The subsets of nonzero weight n_S / d, orbit by orbit, and their
    rows of the maximal channel over d * q: with t = p / q, n_S * p on
    the subset and n_S * q elsewhere.  A zero-weight orbit is skipped,
    since its outputs never occur.
    """
    m = polytope.group.alphabet.size
    t = polytope.level.t
    p, q = t.numerator, t.denominator
    masks, rows = [], []
    for orbit, w in zip(polytope.orbits, n):
        if w:
            wp, wq = w * p, w * q
            masks += orbit.masks
            rows += (tuple(wp if mask >> x & 1 else wq for x in range(m))
                     for mask in orbit.masks)
    return tuple(masks), tuple(rows)


def extremal_channel(weights: WeightVector) -> Channel:
    """The maximal channel of the weights, with one output per subset of
    nonzero weight, orbit by orbit (ascending under the trivial group):
    output letter S is the subset's bitmask, and its row is S's staircase
    row scaled by the weight of its orbit.  A zero-weight subset's output
    never occurs, and leaving it out keeps the Blackwell class.
    """
    polytope = weights.polytope
    if not in_weight_polytope(weights):
        raise PolytopeViolationError("weights are not a member of the weight polytope")
    masks, rows = staircase_numerators(polytope, weights.numerators)
    return Channel(input_alphabet=weights.input_alphabet,
                   output_alphabet=FiniteAlphabet(masks), numerators=rows,
                   denominator=weights.denominator * polytope.level.t.denominator)


def subset_column_symmetries(m: int) -> list[tuple[int, ...]]:
    """S_m's generators acting on the full polytope's columns.

    Column j is the subset mask j + 1; a letter permutation maps it to
    the column of the permuted mask.  Letter rows permute alongside, so
    each generator maps the rows of the equality system onto themselves.
    """
    return [tuple(image - 1 for image in mask_images(g.images)[1:-1])
            for g in symmetric_generators(m)]


@lru_cache(maxsize=64)
def _basic_feasible_cached(rows: tuple[tuple[int, ...], ...], denominator: int,
                           candidate_cap: int | None, full_m: int | None
                           ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The vertices of {w >= 0 : rows . w = denominator}, sorted, as
    numerators over their one common denominator (1 for no vertex); with
    it fixed, the numerator tuples sort as the weight tuples do."""
    symmetries = subset_column_symmetries(full_m) if full_m else ()
    found = enumerate_basic_feasible([list(row) for row in rows], [denominator] * len(rows),
                                     candidate_cap=candidate_cap, symmetries=symmetries)
    return tuple(sorted(n for n, _ in found)), found[0][1] if found else 1


def polytope_vertices(polytope: WeightPolytope,
                      candidate_cap: int | None = None) -> list[WeightVector]:
    """All vertices of a weight polytope, exactly, sorted, over one
    shared denominator.

    Support enumeration over the orbit columns, memoised on the
    equality system; candidate_cap bounds the number of candidate
    supports.  The full polytope (trivial group) is S_m-invariant, so
    its walk extends only prefixes that come first in their S_m orbit
    and maps each solution around its orbit; a grouped one walks all.
    """
    full_m = polytope.group.alphabet.size if polytope.group.is_trivial else None
    numerators, d = _basic_feasible_cached(polytope.rows, polytope.denominator,
                                           candidate_cap, full_m)
    return [WeightVector(polytope, n, d) for n in numerators]


def enumerate_polytope_vertices(alphabet: FiniteAlphabet, level,
                                cap: int = DEFAULT_ENUM_CAP_M) -> list[WeightVector]:
    """All vertices of the full weight polytope, exactly.

    Support enumeration over the 2^m - 2 columns: of the C(2^m - 2, m)
    candidates (for t > 1), a prefix grows only while independent and
    first in its S_m orbit, so 2,126 of 142,506 are back-substituted at
    m = 5, t = 2.  The cap keeps m <= 5 by default.  The result is sorted.
    """
    require_enum_cap(alphabet.size, cap)
    return polytope_vertices(full_polytope(alphabet, as_level(level)))


def require_enum_cap(m: int, cap: int = DEFAULT_ENUM_CAP_M) -> None:
    """The full vertex enumeration's dimension cap."""
    if m > cap:
        raise DimensionCapError(f"vertex enumeration capped at m <= {cap}, got m = {m}")


def require_grouped_cap(m: int) -> None:
    """The dimension cap of every path with a group, GROUPED_CAP_M; no
    setting raises it."""
    if m > GROUPED_CAP_M:
        raise DimensionCapError(f"grouped paths capped at m <= {GROUPED_CAP_M}, got m = {m}")


# -- extreme directions and maximal channels ----------------------------------


def ray_subsets(channel: Channel, level) -> list[int | None]:
    """The subset behind each row's extreme ray, read off the numerators.

    The extreme rays of the privacy cone are the positive multiples of
    staircase rows.  At t = p / q > 1, a row with exactly two values
    lo < hi and q * hi = p * lo maps to the bitmask of its hi entries; at
    t = 1 (the cone is the constant ray) a nonzero private row maps to 1.
    A zero row maps to 0 (it is on no ray but leaves maximality intact),
    any other row to None.  Raises NotLdpError for a channel that is not
    private, then ValueError for one with fewer than two inputs.
    """
    level = as_level(level)
    require_ldp(channel, level)
    if channel.input_alphabet.size < 2:
        raise ValueError("maximality needs at least two input letters")
    p, q = level.t.numerator, level.t.denominator
    subsets = []
    for row in channel.numerators:
        lo, hi = min(row), max(row)
        if not hi:
            subsets.append(0)
        elif p == q:
            subsets.append(1)
        elif q * hi != p * lo or len(set(row)) != 2:
            subsets.append(None)
        else:
            subsets.append(sum(1 << x for x, v in enumerate(row) if v == hi))
    return subsets
