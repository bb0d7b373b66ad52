"""Channels between finite alphabets, privacy levels, and composition.

A channel is stored as integer numerators over one positive common
denominator, reduced by the gcd of all of them, so equal matrices have
equal fields; rows are indexed by output letters and columns by input
letters, and every column of numerators sums to the denominator.  The
exact Fraction rows are a view built on first read.  Zero rows are
allowed (outputs that never occur), but no geometric construction
needs one: a maximal channel lists only its subsets of nonzero weight.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, NotLdpError
from .groups import FiniteAlphabet
from .rationals import as_fraction, integer_matrix

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PrivacyLevel:
    """A privacy budget, stored as the exact odds bound t = e^epsilon >= 1."""

    t: Fraction

    def __post_init__(self):
        if not isinstance(self.t, Fraction):
            object.__setattr__(self, "t", as_fraction(self.t))
        if self.t < 1:
            raise ValueError(f"privacy bound t must be >= 1, got {self.t}")

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "tuple[PrivacyLevel, float]":
        """Best rational approximation of e^epsilon with denominator at
        most 10^6, with an error bound.

        e^epsilon is irrational for rational epsilon != 0, so the
        returned level is an approximation: the second value bounds
        |t - e^epsilon| (continued-fraction truncation plus float
        rounding in the exponential itself).
        """
        epsilon = float(epsilon)
        if math.isnan(epsilon):
            raise ValueError("epsilon must be a number, got nan")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        target = math.exp(epsilon)
        t = Fraction(target).limit_denominator(10 ** 6)
        if t < 1:
            t = Fraction(1)
        bound = abs(float(Fraction(target) - t)) + 4 * sys.float_info.epsilon * target
        return cls(t), bound


def as_level(value) -> PrivacyLevel:
    if isinstance(value, PrivacyLevel):
        return value
    return PrivacyLevel(as_fraction(value))


@dataclass(frozen=True)
class Channel:
    """Exact column-stochastic matrix from an input to an output alphabet:
    entry [y][x] is numerators[y][x] / denominator."""

    input_alphabet: FiniteAlphabet
    output_alphabet: FiniteAlphabet
    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    def __post_init__(self):
        n_out = self.output_alphabet.size
        n_in = self.input_alphabet.size
        numerators, d = self.numerators, self.denominator
        if d <= 0:
            raise ValueError(f"channel denominator must be positive, got {d}")
        if len(numerators) != n_out:
            raise ValueError(f"expected {n_out} rows, got {len(numerators)}")
        for row in numerators:
            if len(row) != n_in:
                raise ValueError(f"expected {n_in} entries per row, got {len(row)}")
            if min(row) < 0:
                raise ValueError("channel entries must be nonnegative")
        sums = [sum(col) for col in zip(*numerators)] or [0] * n_in
        for x in range(n_in):
            if sums[x] != d:
                raise ValueError(f"column {x} sums to {Fraction(sums[x], d)}, not 1")
        g = math.gcd(d, *chain.from_iterable(numerators))
        if g != 1:
            object.__setattr__(self, "numerators",
                               tuple(tuple(v // g for v in row) for row in numerators))
            object.__setattr__(self, "denominator", d // g)

    @classmethod
    def of_rows(cls, input_alphabet: FiniteAlphabet, output_alphabet: FiniteAlphabet,
                rows: Iterable[Iterable]) -> "Channel":
        """The channel of exact rows (Fractions or ints)."""
        numerators, d = integer_matrix(rows)
        return cls(input_alphabet=input_alphabet, output_alphabet=output_alphabet,
                   numerators=tuple(map(tuple, numerators)), denominator=d)

    @classmethod
    def build(cls, input_letters: Sequence, output_letters: Sequence,
              rows: Iterable[Iterable]) -> "Channel":
        return cls.of_rows(FiniteAlphabet(tuple(input_letters)),
                           FiniteAlphabet(tuple(output_letters)),
                           [[as_fraction(v) for v in row] for row in rows])

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as exact Fractions, built on first read."""
        d = self.denominator
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.numerators)

    @property
    def num_inputs(self) -> int:
        return self.input_alphabet.size

    @property
    def num_outputs(self) -> int:
        return self.output_alphabet.size

    def push_forward(self, dist: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Output distribution for an exact input distribution."""
        return tuple(sum((row[x] * dist[x] for x in range(self.num_inputs)), _ZERO)
                     for row in self.rows)


def is_ldp(channel: Channel, level) -> bool:
    """Whether every output's likelihood ratio across inputs is within t.

    Row by row this is t * min >= max, which is exactly the pairwise
    constraint t * Q[y, x] >= Q[y, x'] for all x, x'; with t = p/q it
    runs on the numerators as p * min >= q * max.
    """
    t = as_level(level).t
    p, q = t.numerator, t.denominator
    for row in channel.numerators:
        if p * min(row) < q * max(row):
            return False
    return True


def require_ldp(channel: Channel, level) -> None:
    if not is_ldp(channel, level):
        raise NotLdpError(f"channel violates the t={as_level(level).t} constraint")


def compose(post: Channel, channel: Channel) -> Channel:
    """Matrix product: feed `channel` outputs through `post`.

    The product runs on the numerators, over the product of the two
    denominators.
    """
    if post.input_alphabet != channel.output_alphabet:
        raise AlphabetMismatchError("post-processor input must match channel output")
    c = channel.numerators
    cols = [[row[x] for row in c] for x in range(channel.num_inputs)]
    numerators = tuple(tuple(sum(map(mul, p_row, col)) for col in cols)
                       for p_row in post.numerators)
    return Channel(input_alphabet=channel.input_alphabet,
                   output_alphabet=post.output_alphabet,
                   numerators=numerators,
                   denominator=post.denominator * channel.denominator)
