"""Channels between finite alphabets, privacy levels, and the Blackwell order.

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

from .errors import AlphabetMismatchError, NotLdpError, WeightSumError
from .groups import FiniteAlphabet, GroupAction, PermGroup, Permutation
from .rationals import as_fraction, integer_matrix
from .simplex import feasible_point

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def dominates(q1: Channel, q2: Channel) -> DominanceWitness | None:
    """Exact Blackwell dominance test: is q2 a post-processing of q1?

    Decided by a rational feasibility LP over the post-processor
    entries; returns the witness found, or None when infeasible.
    """
    if q1.input_alphabet != q2.input_alphabet:
        raise AlphabetMismatchError("dominance needs a common input alphabet")
    n1 = q1.num_outputs
    n2 = q2.num_outputs
    n_in = q1.num_inputs
    nvars = n1 * n2  # W[z][y] at index z * n1 + y
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for z in range(n2):
        for x in range(n_in):
            row = [_ZERO] * nvars
            for y in range(n1):
                row[z * n1 + y] = q1.rows[y][x]
            a_eq.append(row)
            b_eq.append(q2.rows[z][x])
    for y in range(n1):
        row = [_ZERO] * nvars
        for z in range(n2):
            row[z * n1 + y] = _ONE
        a_eq.append(row)
        b_eq.append(_ONE)
    solution = feasible_point(a_eq, b_eq, nvars)
    if solution is None:
        return None
    w_rows = tuple(tuple(solution[z * n1 + y] for y in range(n1)) for z in range(n2))
    post = Channel(input_alphabet=q1.output_alphabet,
                   output_alphabet=q2.output_alphabet,
                   rows=w_rows)
    return DominanceWitness(base=q1, derived=q2, post_processor=post)


def equivalent(q1: Channel, q2: Channel) -> bool:
    """Blackwell equivalence: each channel post-processes into the other."""
    return dominates(q1, q2) is not None and dominates(q2, q1) is not None


def direct_sum(weights: Sequence, channels: Sequence[Channel]) -> Channel:
    """Mixture with labeled components: run channel j with probability p_j.

    Output letters are (block_index, letter) pairs, so the result keeps
    every component's rows even at weight zero.
    """
    if len(weights) != len(channels) or not channels:
        raise WeightSumError("need one weight per channel, at least one of each")
    probs = [as_fraction(w) for w in weights]
    if any(p < 0 for p in probs):
        raise WeightSumError("mixture weights must be nonnegative")
    if sum(probs) != 1:
        raise WeightSumError(f"mixture weights sum to {sum(probs)}, not 1")
    base_input = channels[0].input_alphabet
    for q in channels:
        if q.input_alphabet != base_input:
            raise AlphabetMismatchError("direct sum needs a common input alphabet")
    letters = []
    rows = []
    for j, (p, q) in enumerate(zip(probs, channels)):
        for y, letter in enumerate(q.output_alphabet.letters):
            letters.append((j, letter))
            rows.append(tuple(p * v for v in q.rows[y]))
    return Channel(input_alphabet=base_input,
                   output_alphabet=FiniteAlphabet(tuple(letters)),
                   rows=tuple(rows))


def apply_group_element(g: Permutation, sigma: GroupAction, channel: Channel) -> Channel:
    """Relabel a channel by g on inputs and sigma_g on outputs.

    The result Q' satisfies Q'[y, x] = Q[sigma_{g^-1}(y), g^-1 x], so a
    channel is invariant exactly when this returns it unchanged for
    every group element.
    """
    m = channel.num_inputs
    if g.degree != m:
        raise AlphabetMismatchError("group element degree must match the input size")
    if set(sigma.carrier) != set(channel.output_alphabet.letters):
        raise AlphabetMismatchError("output action carrier must match the output alphabet")
    g_inv = g.inverse()
    out_index = {letter: i for i, letter in enumerate(channel.output_alphabet.letters)}
    rows = tuple(
        tuple(channel.rows[out_index[sigma.act(g_inv, y_letter)]][g_inv(x)]
              for x in range(m))
        for y_letter in channel.output_alphabet.letters
    )
    return Channel(input_alphabet=channel.input_alphabet,
                   output_alphabet=channel.output_alphabet,
                   rows=rows)


def symmetrize(group: PermGroup, channel: Channel) -> Channel:
    """Average a channel over a group, keeping one labeled block per element.

    Block g holds (1/|G|) Q[y, g^-1 x]; the result is invariant under
    the action that sends block g to block h*g (see
    symmetrized_output_action) and is dominated by the original channel.
    """
    if group.alphabet != channel.input_alphabet:
        raise AlphabetMismatchError("group must act on the channel's input alphabet")
    share = Fraction(1, group.order)
    letters = []
    rows = []
    for gidx, g in enumerate(group.elements):
        g_inv = g.inverse()
        for y, letter in enumerate(channel.output_alphabet.letters):
            letters.append((gidx, letter))
            rows.append(tuple(share * channel.rows[y][g_inv(x)]
                              for x in range(channel.num_inputs)))
    return Channel(input_alphabet=channel.input_alphabet,
                   output_alphabet=FiniteAlphabet(tuple(letters)),
                   rows=tuple(rows))


def symmetrized_output_action(group: PermGroup, channel: Channel) -> GroupAction:
    """The output action (block g, y) -> (block h*g, y) for symmetrize(group, channel)."""
    index = {g: i for i, g in enumerate(group.elements)}
    carrier = tuple((gidx, letter)
                    for gidx in range(group.order)
                    for letter in channel.output_alphabet.letters)

    def act(h: Permutation, point):
        gidx, letter = point
        return (index[h * group.elements[gidx]], letter)

    return GroupAction(group=group, carrier=carrier, act=act)
