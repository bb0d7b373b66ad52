"""Statistical decision problems observed through a channel.

Risks are exact rationals end to end: model, loss, prior, channel, and
decision rules are all rational.  The Bayes reduction and the output
likelihoods behind the minimax LP run on integers over one
common denominator per matrix and return exact Fractions; the minimax
linear program is an exact simplex.  Information measures
(mutual information, f-divergences) are the one exception: they return
floats, computed from exact joint distributions at the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_ONE = Fraction(1)

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
        m = self.input_alphabet.size
        if len(self.model) != m or any(len(r) != n_par for r in self.model):
            raise ValueError("model must be an m x #parameters matrix")
        for i in range(n_par):
            col = [self.model[x][i] for x in range(m)]
            if any(v < 0 for v in col) or sum(col) != 1:
                raise ValueError(f"model column {i} is not a distribution")
        if len(self.loss) != n_par or any(len(r) != len(self.actions) for r in self.loss):
            raise ValueError("loss must be a #parameters x #actions matrix")

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

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        return cls(values=tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def build(cls, values) -> "Prior":
        return cls(values=tuple(as_fraction(v) for v in values))


@dataclass(frozen=True)
class DecisionRule:
    """Randomized rule: probs[y][a] is the chance of action a at output y."""

    probs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.probs:
            if any(v < 0 for v in row) or sum(row) != 1:
                raise ValueError("each output needs a distribution over actions")

    @classmethod
    def deterministic(cls, choices: Sequence[int], n_actions: int) -> "DecisionRule":
        return cls(probs=tuple(
            tuple(_ONE if a == choice else _ZERO for a in range(n_actions))
            for choice in choices))


def _likelihoods(problem: DecisionProblem,
                 rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Chance of each output row under each parameter: w[y][i] / d.

    w[y][i] = sum_x rows[y][x] * model[x][i], one integer matrix product
    with the channel and the model each scaled over one denominator; d
    is their product.
    """
    c, d_c = integer_matrix(rows)
    model, d_m = integer_matrix(problem.model)
    cols = list(zip(*model))
    return [[sum(map(mul, c_row, col)) for col in cols] for c_row in c], d_c * d_m


def _require_alphabet(problem: DecisionProblem, channel: Channel) -> None:
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")


def _bayes_costs(problem: DecisionProblem, prior: Prior,
                 rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Prior-weighted loss of each action at each output row: costs[y][a] / d.

    That is sum_x rows[y][x] * K[x][a], with K[x][a] = sum_i prior_i *
    model[x][i] * loss[i][a] formed once, all on integers: each matrix is
    scaled over one denominator, and d is their product.  d > 0, so one
    row's costs compare (min, ties) as their Fractions do.
    """
    if len(prior.values) != len(problem.parameters):
        raise ValueError("prior length must match the parameter list")
    (p,), d_p = integer_matrix([prior.values])
    model, d_m = integer_matrix(problem.model)
    loss, d_l = integer_matrix(problem.loss)
    k_cols = [[sum(p_i * v * loss_row[a] for p_i, v, loss_row in zip(p, model_row, loss))
               for model_row in model]
              for a in range(len(problem.actions))]
    c, d_c = integer_matrix(rows)
    return ([[sum(map(mul, c_row, col)) for col in k_cols] for c_row in c],
            d_p * d_m * d_l * d_c)


def bayes_optimal_risk(problem: DecisionProblem, prior: Prior,
                       channel: Channel) -> tuple[Fraction, DecisionRule]:
    """Minimal average risk and an optimal deterministic rule.

    Ties between actions go to the lowest action index, so the returned
    rule is deterministic in every sense.
    """
    _require_alphabet(problem, channel)
    costs, d = _bayes_costs(problem, prior, channel.rows)
    best = [min(row) for row in costs]
    choices = [row.index(b) for row, b in zip(costs, best)]
    return Fraction(sum(best), d), DecisionRule.deterministic(choices, len(problem.actions))


def minimax_risk(problem: DecisionProblem, channel: Channel) -> tuple[Fraction, DecisionRule]:
    """Minimal worst-case risk over randomized rules, by exact LP.

    Variables are the rule probabilities of each output that can occur
    (its likelihood row is nonzero), a split level s = s+ - s-, and one
    slack per parameter; an output no parameter can produce adds nothing
    to any risk, so it stays out of the LP and its rule row is action 0.
    A vertex channel has at most m nonzero rows, so at m = 4 the LP has
    at most 4 + #parameters rows, not 14 + #parameters.  Each parameter
    row is the rational row times the product of the channel, model and
    loss denominators, all integers, so the value is the same Fraction.
    Bland pivoting keeps the solve deterministic; on a degenerate optimum
    the rule may be a different optimal rule than the LP over every
    output would give.
    """
    _require_alphabet(problem, channel)
    w, d_w = _likelihoods(problem, channel.rows)
    loss, d_l = integer_matrix(problem.loss)
    live = [y for y, w_row in enumerate(w) if any(w_row)]
    n_actions = len(problem.actions)
    n_par = len(problem.parameters)
    s_plus = len(live) * n_actions
    s_minus = s_plus + 1
    nvars = s_minus + 1 + n_par  # rule block, s+, s-, slacks
    scale = d_w * d_l
    a_eq: list[list[int]] = []
    for k in range(len(live)):
        row = [0] * nvars
        row[k * n_actions:(k + 1) * n_actions] = [1] * n_actions
        a_eq.append(row)
    for i in range(n_par):
        row = [0] * nvars
        for k, y in enumerate(live):
            wy = w[y][i]
            if wy:
                row[k * n_actions:(k + 1) * n_actions] = [wy * v for v in loss[i]]
        row[s_plus] = -scale
        row[s_minus] = scale
        row[s_minus + 1 + i] = scale
        a_eq.append(row)
    cost = [0] * nvars
    cost[s_plus] = 1
    cost[s_minus] = -1
    res = solve_standard_lp(a_eq, [1] * len(live) + [0] * n_par, cost)
    probs = [(_ONE,) + (_ZERO,) * (n_actions - 1)] * channel.num_outputs
    for k, y in enumerate(live):
        probs[y] = tuple(res.x[k * n_actions:(k + 1) * n_actions])
    return res.value, DecisionRule(probs=tuple(probs))


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
    equal to sum(c_y * u_y): the Bayes cost of each raw staircase row."""
    costs, d = _bayes_costs(problem, prior,
                            _per_staircase_row(problem.input_alphabet.size, level, tuple))
    return [Fraction(min(row), d) for row in costs]


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

