"""Finite alphabets, permutation groups, and group actions.

Alphabets carry an explicit letter order; every other canonical order
in the package (subsets as bitmasks, orbit listings, group elements)
derives from it, so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

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
        if sorted(self.images) != list(range(m)):
            raise NotBijectiveError(f"not a bijection on 0..{m - 1}: {self.images}")

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(m)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, position: int) -> int:
        return self.images[position]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
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
        return len(mask_to_positions(self.masks[0]))


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
        return tuple(SubsetOrbit(masks=orbit)
                     for orbit in orbits(subset_action(natural_action(self))))


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
class GroupAction:
    """A group acting on an ordered carrier of points.

    `act(g, point)` must satisfy the usual laws (identity fixes every
    point, compatibility with composition).
    """

    group: PermGroup
    carrier: tuple[Hashable, ...]
    act: Callable[[Permutation, Hashable], Hashable] = field(compare=False)


def natural_action(group: PermGroup) -> GroupAction:
    """The group acting on its own alphabet letters."""
    letters = group.alphabet.letters

    def act(g: Permutation, letter):
        return letters[g(letters.index(letter))]

    return GroupAction(group=group, carrier=letters, act=act)


def all_subset_masks(m: int) -> tuple[int, ...]:
    """Nonempty proper subsets of an m-letter alphabet, as ascending bitmasks."""
    return tuple(range(1, (1 << m) - 1))


def mask_to_positions(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_action(action: GroupAction) -> GroupAction:
    """Lift an action on letters to nonempty proper subsets (as bitmasks)."""
    group = action.group
    letters = group.alphabet.letters
    m = len(letters)
    if m < 2:
        raise ValueError("subset action needs at least two letters")
    if action.carrier != letters:
        raise ValueError("subset action must be built over the letter action")
    index = {letter: i for i, letter in enumerate(letters)}

    def act(g: Permutation, mask: int) -> int:
        out = 0
        for i in mask_to_positions(mask):
            out |= 1 << index[action.act(g, letters[i])]
        return out

    return GroupAction(group=group, carrier=all_subset_masks(m), act=act)


def orbits(action: GroupAction) -> tuple[tuple[Hashable, ...], ...]:
    """Orbit partition of the carrier.

    Points inside an orbit keep carrier order; orbits are sorted by
    their smallest member's carrier position.
    """
    position = {p: i for i, p in enumerate(action.carrier)}
    unseen = set(action.carrier)
    out = []
    for p in action.carrier:
        if p not in unseen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for g in action.group.generators:
                    image = action.act(g, q)
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        unseen -= orbit
        out.append(tuple(sorted(orbit, key=position.__getitem__)))
    return tuple(out)
