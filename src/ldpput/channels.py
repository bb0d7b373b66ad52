"""Channels between finite alphabets, privacy levels, composition, and
post-processing witnesses.

A channel is stored as an exact rational matrix, rows indexed by output
letters and columns by input letters, every column summing to one.
Zero rows are allowed: they correspond to outputs that never occur and
keep row indexing stable under the geometric constructions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
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
    """Exact column-stochastic matrix from an input to an output alphabet."""

    input_alphabet: FiniteAlphabet
    output_alphabet: FiniteAlphabet
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n_out = self.output_alphabet.size
        n_in = self.input_alphabet.size
        if len(self.rows) != n_out:
            raise ValueError(f"expected {n_out} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != n_in:
                raise ValueError(f"expected {n_in} entries per row, got {len(row)}")
            for v in row:
                if v < 0:
                    raise ValueError("channel entries must be nonnegative")
        for x in range(n_in):
            total = sum((row[x] for row in self.rows), _ZERO)
            if total != 1:
                raise ValueError(f"column {x} sums to {total}, not 1")

    @classmethod
    def build(cls, input_letters: Sequence, output_letters: Sequence,
              rows: Iterable[Iterable]) -> "Channel":
        return cls(
            input_alphabet=FiniteAlphabet(tuple(input_letters)),
            output_alphabet=FiniteAlphabet(tuple(output_letters)),
            rows=tuple(tuple(as_fraction(v) for v in row) for row in rows),
        )

    @property
    def num_inputs(self) -> int:
        return self.input_alphabet.size

    @property
    def num_outputs(self) -> int:
        return self.output_alphabet.size

    def column(self, x: int) -> tuple[Fraction, ...]:
        return tuple(row[x] for row in self.rows)

    def push_forward(self, dist: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Output distribution for an exact input distribution."""
        return tuple(sum((row[x] * dist[x] for x in range(self.num_inputs)), _ZERO)
                     for row in self.rows)


def is_ldp(channel: Channel, level) -> bool:
    """Whether every output's likelihood ratio across inputs is within t.

    Row by row this is t * min >= max, which is exactly the pairwise
    constraint t * Q[y, x] >= Q[y, x'] for all x, x'.
    """
    t = as_level(level).t
    for row in channel.rows:
        if t * min(row) < max(row):
            return False
    return True


def require_ldp(channel: Channel, level) -> None:
    if not is_ldp(channel, level):
        raise NotLdpError(f"channel violates the t={as_level(level).t} constraint")


def compose(post: Channel, channel: Channel) -> Channel:
    """Matrix product: feed `channel` outputs through `post`.

    Each matrix is scaled to integers over one common denominator, so
    the product runs on integers and each entry is an exact Fraction
    built once, at the end.
    """
    if post.input_alphabet != channel.output_alphabet:
        raise AlphabetMismatchError("post-processor input must match channel output")
    p, d_post = integer_matrix(post.rows)
    c, d_channel = integer_matrix(channel.rows)
    d = d_post * d_channel
    cols = [[row[x] for row in c] for x in range(channel.num_inputs)]
    rows = tuple(tuple(Fraction(sum(map(mul, p_row, col)), d) for col in cols)
                 for p_row in p)
    return Channel(input_alphabet=channel.input_alphabet,
                   output_alphabet=post.output_alphabet,
                   rows=rows)


@dataclass(frozen=True)
class DominanceWitness:
    """A stochastic post-processor W with derived == compose(W, base)."""

    base: Channel
    derived: Channel
    post_processor: Channel

    def __post_init__(self):
        if compose(self.post_processor, self.base) != self.derived:
            raise ValueError("post-processor does not reproduce the derived channel")
