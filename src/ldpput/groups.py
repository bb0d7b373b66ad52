"""Finite alphabets, permutation groups, and their orbits on letters
and subsets.

Alphabets carry an explicit letter order; every other canonical order
in the package (subsets as bitmasks, orbit listings, group elements)
derives from it, so results are reproducible across runs.  Orbits are
computed on integer points (letter positions or subset masks) from one
image table per generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import CapExceededError, NotBijectiveError

GROUP_CAP = 10080


@dataclass(frozen=True)
class FiniteAlphabet:
    """An ordered finite set of distinct hashable letters."""

    letters: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    @classmethod
    def of_size(cls, m: int) -> "FiniteAlphabet":
        return cls(tuple(range(m)))

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter) -> int:
        return self.letters.index(letter)


@dataclass(frozen=True, order=True)
class Permutation:
    """Permutation of positions 0..m-1; images[i] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        m = len(self.images)
        # type, not isinstance: 1.0 and True equal 1 but are no position
        if any(type(v) is not int for v in self.images) or sorted(self.images) != list(range(m)):
            raise NotBijectiveError(f"not a bijection on 0..{m - 1}: {self.images}")

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(m)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other).images[i] = self.images[other.images[i]]
        return Permutation(tuple(self.images[j] for j in other.images))


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
        return self.masks[0].bit_count()


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on an alphabet, given by its generators.

    Orbits need only the generators.  The element list is closed on
    first read and kept; only a caller that needs every element reads it.
    """

    alphabet: FiniteAlphabet
    generators: tuple[Permutation, ...]

    @property
    def is_trivial(self) -> bool:
        """Whether every generator is the identity."""
        identity = tuple(range(self.alphabet.size))
        return all(g.images == identity for g in self.generators)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, closed breadth first and sorted by image tuple.

        Raises CapExceededError as soon as the closure grows past
        GROUP_CAP elements.
        """
        identity = Permutation.identity(self.alphabet.size)
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.generators:
                    prod = h * g
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
                        if len(seen) > GROUP_CAP:
                            raise CapExceededError(f"group order exceeds cap {GROUP_CAP}")
            frontier = nxt
        return tuple(sorted(seen))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def subset_orbits(self) -> tuple[SubsetOrbit, ...]:
        """Orbits of nonempty proper subsets, ordered by smallest member;
        built once per group object, however many callers read them."""
        m = self.alphabet.size
        if m < 2:
            raise ValueError("subset action needs at least two letters")
        action = TableAction(carrier=all_subset_masks(m),
                             images=tuple(mask_images(g.images) for g in self.generators))
        return tuple(SubsetOrbit(masks=orbit) for orbit in orbits(action))


def generate_group(alphabet: FiniteAlphabet,
                   generators: Iterable[Permutation | Sequence[int]]) -> PermGroup:
    """The group a generator list generates on an alphabet.

    Each generator must be a permutation of the alphabet's positions
    (NotBijectiveError otherwise).  Nothing is closed here: the elements
    are built when `elements` is first read.
    """
    m = alphabet.size
    gens: list[Permutation] = []
    for g in generators:
        perm = g if isinstance(g, Permutation) else Permutation(tuple(g))
        if perm.degree != m:
            raise NotBijectiveError(f"permutation degree {perm.degree} != alphabet size {m}")
        gens.append(perm)
    return PermGroup(alphabet=alphabet, generators=tuple(gens))


def trivial_group(alphabet: FiniteAlphabet) -> PermGroup:
    return generate_group(alphabet, [])


def cyclic_group(alphabet: FiniteAlphabet) -> PermGroup:
    m = alphabet.size
    shift = Permutation(tuple((i + 1) % m for i in range(m)))
    return generate_group(alphabet, [shift])


def symmetric_generators(m: int) -> tuple[Permutation, ...]:
    """The swap of the first two letters and the cyclic shift: they generate S_m."""
    if m == 1:
        return ()
    swap = Permutation((1, 0) + tuple(range(2, m)))
    shift = Permutation(tuple((i + 1) % m for i in range(m)))
    return swap, shift


def symmetric_group(alphabet: FiniteAlphabet) -> PermGroup:
    return generate_group(alphabet, symmetric_generators(alphabet.size))


@dataclass(frozen=True)
class TableAction:
    """Generators acting on integer points by table lookup: images[k][p]
    is generator k's image of point p.  The carrier lists the points in
    ascending order, and every table maps it onto itself."""

    carrier: Sequence[int]
    images: tuple[Sequence[int], ...]


def all_subset_masks(m: int) -> tuple[int, ...]:
    """Nonempty proper subsets of an m-letter alphabet, as ascending bitmasks."""
    return tuple(range(1, (1 << m) - 1))


def mask_images(images: Sequence[int]) -> list[int]:
    """The image of every mask 0 .. 2^m - 1 when bit x moves to bit
    images[x], built by doubling: the masks with highest bit x are those
    below 2^x with bit images[x] added."""
    table = [0]
    for image in images:
        bit = 1 << image
        table += [v | bit for v in table]
    return table


def orbits(action: TableAction) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the carrier, each orbit ascending and the
    orbits by smallest member; one breadth-first pass over seen points."""
    images = action.images
    seen = bytearray(action.carrier[-1] + 1)
    out = []
    for p in action.carrier:
        if seen[p]:
            continue
        seen[p] = 1
        orbit = [p]
        for q in orbit:  # grows while it is read: breadth first
            for table in images:
                r = table[q]
                if not seen[r]:
                    seen[r] = 1
                    orbit.append(r)
        orbit.sort()
        out.append(tuple(orbit))
    return tuple(out)
