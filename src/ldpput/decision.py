"""Statistical decision problems observed through a channel.

Risks are exact rationals end to end: model, loss, prior and channel
are all rational.  The Bayes reduction and the output likelihoods
behind the minimax LP run on the channel's integer numerators and on
the model, loss and prior each scaled over one common denominator
(built once per problem and prior), and return exact Fractions; the
minimax linear program is an exact simplex.  Information measures
(mutual information, f-divergences) are the one exception: they return
floats, computed from exact joint distributions at the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .channels import Channel, as_level
from .errors import AlphabetMismatchError, UnsupportedDivergenceError
from .groups import FiniteAlphabet, all_subset_masks
from .ldp_geometry import staircase_row
from .rationals import as_fraction, integer_matrix
from .simplex import solve_standard_lp

_ZERO = Fraction(0)

F_DIVERGENCES = ("kl", "tv", "chi2", "hellinger2")


@dataclass(frozen=True)
class DecisionProblem:
    """Finite parameter set, observation model, actions, and loss.

    model[x][i] is the chance of letter x under parameter i (columns over
    x sum to one); loss[i][a] is the penalty for action a at parameter i.
    """

    parameters: tuple
    input_alphabet: FiniteAlphabet
    model: tuple[tuple[Fraction, ...], ...]
    actions: tuple
    loss: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n_par = len(self.parameters)
        if not n_par:
            raise ValueError("a decision problem needs at least one parameter")
        if not self.actions:
            raise ValueError("a decision problem needs at least one action")
        m = self.input_alphabet.size
        if len(self.model) != m or any(len(r) != n_par for r in self.model):
            raise ValueError("model must be an m x #parameters matrix")
        for i in range(n_par):
            col = [self.model[x][i] for x in range(m)]
            if any(v < 0 for v in col) or sum(col) != 1:
                raise ValueError(f"model column {i} is not a distribution")
        if len(self.loss) != n_par or any(len(r) != len(self.actions) for r in self.loss):
            raise ValueError("loss must be a #parameters x #actions matrix")

    @cached_property
    def integer_model(self) -> tuple[list[list[int]], int]:
        """The model as integer rows over one denominator, built once."""
        return integer_matrix(self.model)

    @cached_property
    def integer_loss(self) -> tuple[list[list[int]], int]:
        """The loss as integer rows over one denominator, built once."""
        return integer_matrix(self.loss)

    @classmethod
    def build(cls, parameters, input_letters, model, actions, loss) -> "DecisionProblem":
        return cls(parameters=tuple(parameters),
                   input_alphabet=FiniteAlphabet(tuple(input_letters)),
                   model=tuple(tuple(as_fraction(v) for v in row) for row in model),
                   actions=tuple(actions),
                   loss=tuple(tuple(as_fraction(v) for v in row) for row in loss))


@dataclass(frozen=True)
class Prior:
    """Exact distribution over the parameter list."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values) or sum(self.values) != 1:
            raise ValueError("prior must be a distribution")

    @cached_property
    def integer_values(self) -> tuple[list[int], int]:
        """The values as integers over one denominator, built once."""
        (values,), d = integer_matrix([self.values])
        return values, d

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        return cls(values=tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def build(cls, values) -> "Prior":
        return cls(values=tuple(as_fraction(v) for v in values))


def _likelihoods(problem: DecisionProblem, channel: Channel) -> tuple[list[list[int]], int]:
    """Chance of each output row under each parameter: w[y][i] / d.

    w[y][i] = sum_x Q[y][x] * model[x][i], one integer matrix product of
    the channel's numerators and the model scaled over one denominator;
    d is the product of the two denominators.
    """
    model, d_m = problem.integer_model
    cols = list(zip(*model))
    return ([[sum(map(mul, c_row, col)) for col in cols] for c_row in channel.numerators],
            channel.denominator * d_m)


def _require_alphabet(problem: DecisionProblem, channel: Channel) -> None:
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")


def _bayes_costs(problem: DecisionProblem, prior: Prior, numerators: Sequence[Sequence[int]],
                 d_c: int) -> tuple[list[list[int]], int]:
    """Prior-weighted loss of each action at each output row, for the
    rows numerators / d_c: costs[y][a] / d.

    That is sum_x rows[y][x] * K[x][a], with K[x][a] = sum_i prior_i *
    model[x][i] * loss[i][a] formed once, all on integers: each matrix is
    scaled over one denominator, and d is their product.  d > 0, so one
    row's costs compare (min, ties) as their Fractions do.
    """
    if len(prior.values) != len(problem.parameters):
        raise ValueError("prior length must match the parameter list")
    p, d_p = prior.integer_values
    model, d_m = problem.integer_model
    loss, d_l = problem.integer_loss
    k_cols = [[sum(p_i * v * loss_row[a] for p_i, v, loss_row in zip(p, model_row, loss))
               for model_row in model]
              for a in range(len(problem.actions))]
    return ([[sum(map(mul, c_row, col)) for col in k_cols] for c_row in numerators],
            d_p * d_m * d_l * d_c)


def bayes_optimal_risk(problem: DecisionProblem, prior: Prior, channel: Channel) -> Fraction:
    """Minimal average risk: each output takes its cheapest action.

    Every row is priced: a zero row costs 0 under every action, so it
    adds min(0, ...) = 0.
    """
    _require_alphabet(problem, channel)
    costs, d = _bayes_costs(problem, prior, channel.numerators, channel.denominator)
    return Fraction(sum(map(min, costs)), d)


def minimax_risk(problem: DecisionProblem, channel: Channel) -> Fraction:
    """Minimal worst-case risk over randomized rules, by exact LP.

    Variables are the rule probabilities x of each output that can occur
    (its likelihood row is nonzero; no other output adds to any risk),
    the level's gap below top, and one slack per parameter.  A vertex
    channel has at most m nonzero rows, so at m = 4 the LP has at most
    4 + #parameters rows.  Risks are scaled by the product of the
    channel, model and loss denominators, so every row is integer; top,
    the largest loss entry times that scale, bounds every risk.

    The LP is handed over in canonical form, B = I, so the simplex's
    start pivots update no row: each output y starts at its cheapest
    action a_y under the uniform prior (the lowest index on ties), and
    every slack is basic.  With x[y][a_y] = 1 - the rest substituted,
    parameter i's row is g_i.x + gap + slack_i = top - R_i >= 0, where
    R_i = sum_y w[y][i] * loss[i][a_y] is its start risk and g_i(y, a) =
    w[y][i] * (loss[i][a] - loss[i][a_y]).  The cost is -gap, so Bland's
    rule first enters the gap where the slack of the first parameter
    with the largest start risk leaves.  Returns the value alone: on a
    degenerate optimum the rule would depend on the start.
    """
    _require_alphabet(problem, channel)
    w, d_w = _likelihoods(problem, channel)
    loss, d_l = problem.integer_loss
    live = [w_row for w_row in w if any(w_row)]
    n_actions = len(problem.actions)
    loss_cols = list(zip(*loss))
    start = []
    for w_y in live:
        costs = [sum(map(mul, w_y, col)) for col in loss_cols]
        start.append(costs.index(min(costs)))
    gap = len(live) * n_actions  # columns: rule block, gap, slacks
    ncols = gap + 1 + len(loss)
    a_eq: list[list[int]] = []
    for k in range(len(live)):
        row = [0] * ncols
        row[k * n_actions:(k + 1) * n_actions] = [1] * n_actions
        a_eq.append(row)
    b_eq = [1] * len(live)
    basis = [k * n_actions + a for k, a in enumerate(start)]
    top = max(map(max, loss)) * d_w
    for i, loss_i in enumerate(loss):
        row = [0] * ncols
        rhs = top
        for k, (w_y, a) in enumerate(zip(live, start)):
            f, base = w_y[i], loss_i[a]
            row[k * n_actions:(k + 1) * n_actions] = [f * (v - base) for v in loss_i]
            rhs -= f * base
        row[gap] = row[gap + 1 + i] = 1
        a_eq.append(row)
        b_eq.append(rhs)
    basis += range(gap + 1, ncols)
    cost = [0] * ncols
    cost[gap] = -1
    return (top + solve_standard_lp(a_eq, b_eq, cost, basis).value) / (d_w * d_l)


def mutual_information(channel: Channel, input_dist: Sequence) -> float:
    """Mutual information in nats between input and output.

    The joint distribution is exact; only the logarithms are floats.
    """
    p = [as_fraction(v) for v in input_dist]
    if any(v < 0 for v in p) or sum(p) != 1:
        raise ValueError("input distribution must be exact and sum to one")
    return sum((_information_term(p, row) for row in channel.rows), 0.0)


def _information_term(p: Sequence[Fraction], row: Sequence[Fraction]) -> float:
    """One output's share of the mutual information: the sum over x of
    P(x, y) * log(P(y | x) / P(y)), with P(y | x) = row[x]."""
    py = sum((p[x] * v for x, v in enumerate(row)), _ZERO)
    total = 0.0
    for x, v in enumerate(row):
        joint = p[x] * v
        if joint:
            total += float(joint) * math.log(float(v / py))
    return total


def _f_divergence(name: str, p: Sequence[Fraction], q: Sequence[Fraction]) -> float:
    total = 0.0
    if name == "kl":
        for a, b in zip(p, q):
            if a == 0:
                continue
            if b == 0:
                return math.inf
            total += float(a) * math.log(float(a / b))
    elif name == "tv":
        acc = _ZERO
        for a, b in zip(p, q):
            acc += abs(a - b)
        total = float(acc / 2)
    elif name == "chi2":
        for a, b in zip(p, q):
            if b == 0:
                if a != 0:
                    return math.inf
                continue
            total += float((a - b) ** 2 / b)
    elif name == "hellinger2":
        for a, b in zip(p, q):
            total += (math.sqrt(a) - math.sqrt(b)) ** 2
    else:
        raise UnsupportedDivergenceError(
            f"divergence must be one of {F_DIVERGENCES}, got {name!r}")
    return total


def f_divergence_utility(channel: Channel, name: str, p0: Sequence,
                         p1: Sequence) -> float:
    """f-divergence between the two output distributions the channel
    induces from a pair of input distributions."""
    q0 = channel.push_forward([as_fraction(v) for v in p0])
    q1 = channel.push_forward([as_fraction(v) for v in p1])
    return _f_divergence(name, q0, q1)


def _per_staircase_row(m: int, level, term: Callable[[tuple[Fraction, ...]], object]) -> list:
    """term(staircase row) for every nonempty proper subset, in mask order.

    An objective that sums one term per output row is linear over the
    weight polytope: a channel of weights c has rows c_y * staircase
    row y, and each term below is degree one in its row's scale.
    """
    t = as_level(level).t
    return [term(staircase_row(mask, m, t)) for mask in all_subset_masks(m)]


def bayes_linear_coefficients(problem: DecisionProblem, prior: Prior,
                              level) -> list[Fraction]:
    """Per-subset coefficients u with Bayes risk(channel of weights c)
    equal to sum(c_y * u_y): the Bayes cost of each raw staircase row.

    At t = p/q, staircase row S over q is q at every letter plus p - q at
    the letters in S, so its cost under action a is q * sum_x K[x][a] +
    (p - q) * sum_{x in S} K[x][a], with K[x][a] the cost of letter x's
    identity row.  Each action's 2^m costs are built by doubling, as
    `groups.mask_images` builds its tables (one addition per subset, no
    product), and the cheapest action's is kept.  Equal costs share one
    Fraction.
    """
    t = as_level(level).t
    p, q = t.numerator, t.denominator
    m = problem.input_alphabet.size
    identity = [[int(x == y) for y in range(m)] for x in range(m)]
    k_rows, d = _bayes_costs(problem, prior, identity, q)
    best = None
    for col in zip(*k_rows):
        costs = [q * sum(col)]
        for v in col:
            v *= p - q
            costs += [c + v for c in costs]
        best = costs if best is None else [b if b <= c else c for b, c in zip(best, costs)]
    values = {c: Fraction(c, d) for c in set(best)}
    return [values[c] for c in best[1:-1]]


def mutual_information_linear_coefficients(input_dist: Sequence,
                                           alphabet: FiniteAlphabet,
                                           level) -> list[float]:
    """Per-subset information coefficients: the log-ratio term of each
    staircase row is weight-free, so mutual information is linear in
    the weights."""
    p = [as_fraction(v) for v in input_dist]
    return _per_staircase_row(alphabet.size, level, lambda row: _information_term(p, row))


def f_divergence_linear_coefficients(name: str, p0: Sequence, p1: Sequence,
                                     alphabet: FiniteAlphabet, level) -> list[float]:
    """Per-subset divergence coefficients; staircase rows never vanish,
    so each subset's term scales linearly with its weight."""
    if name not in F_DIVERGENCES:
        raise UnsupportedDivergenceError(
            f"divergence must be one of {F_DIVERGENCES}, got {name!r}")
    pa = [as_fraction(v) for v in p0]
    pb = [as_fraction(v) for v in p1]

    def term(row):
        a = sum((pa[x] * v for x, v in enumerate(row)), _ZERO)
        b = sum((pb[x] * v for x, v in enumerate(row)), _ZERO)
        return _f_divergence(name, [a], [b])

    return _per_staircase_row(alphabet.size, level, term)

