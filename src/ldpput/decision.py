"""Statistical decision problems observed through a channel.

Risks are exact rationals end to end: model, loss, prior, channel, and
decision rules are all rational.  The Bayes reduction runs on integers
over one common denominator per matrix and returns exact Fractions; the
minimax linear program is an exact simplex.  Information measures
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
from .groups import FiniteAlphabet, GroupAction, PermGroup
from .ldp_geometry import staircase_row
from .groups import all_subset_masks
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


def _output_given_parameter(problem: DecisionProblem, channel: Channel) -> list[list[Fraction]]:
    """w[y][i] = chance of output y under parameter i."""
    m = problem.input_alphabet.size
    return [[sum((row[x] * problem.model[x][i] for x in range(m)), _ZERO)
             for i in range(len(problem.parameters))]
            for row in channel.rows]


def _require_alphabet(problem: DecisionProblem, channel: Channel) -> None:
    if channel.input_alphabet != problem.input_alphabet:
        raise AlphabetMismatchError("channel input must match the problem's alphabet")


def risk(problem: DecisionProblem, parameter_index: int, channel: Channel,
         rule: DecisionRule) -> Fraction:
    """Expected loss at one parameter, exactly."""
    _require_alphabet(problem, channel)
    w = _output_given_parameter(problem, channel)
    loss_row = problem.loss[parameter_index]
    total = _ZERO
    for y in range(channel.num_outputs):
        wy = w[y][parameter_index]
        if wy:
            total += wy * sum((rule.probs[y][a] * loss_row[a]
                               for a in range(len(problem.actions))), _ZERO)
    return total


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

    Variables are the rule probabilities, a split level s = s+ - s-,
    and one slack per parameter; Bland pivoting keeps the solve
    deterministic.
    """
    _require_alphabet(problem, channel)
    w = _output_given_parameter(problem, channel)
    n_actions = len(problem.actions)
    n_out = channel.num_outputs
    n_par = len(problem.parameters)
    nvars = n_out * n_actions + 2 + n_par  # rule block, s+, s-, slacks
    s_plus = n_out * n_actions
    s_minus = s_plus + 1
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for y in range(n_out):
        row = [_ZERO] * nvars
        for a in range(n_actions):
            row[y * n_actions + a] = _ONE
        a_eq.append(row)
        b_eq.append(_ONE)
    for i in range(n_par):
        row = [_ZERO] * nvars
        for y in range(n_out):
            wy = w[y][i]
            if wy:
                for a in range(n_actions):
                    row[y * n_actions + a] = wy * problem.loss[i][a]
        row[s_plus] = -_ONE
        row[s_minus] = _ONE
        row[s_minus + 1 + i] = _ONE
        a_eq.append(row)
        b_eq.append(_ZERO)
    cost = [_ZERO] * nvars
    cost[s_plus] = _ONE
    cost[s_minus] = -_ONE
    res = solve_standard_lp(a_eq, b_eq, cost)
    probs = tuple(tuple(res.x[y * n_actions + a] for a in range(n_actions))
                  for y in range(n_out))
    return res.value, DecisionRule(probs=probs)


def check_equalizer(problem: DecisionProblem, prior: Prior, channel: Channel,
                    tolerance: Fraction | int = 0) -> bool:
    """Equalizer test: is a Bayes-optimal rule's risk flat across parameters?

    When it is, that rule is minimax and the Bayes risk equals the
    minimax risk; the consequence is verified here, not assumed.  The
    rule examined averages over tied actions, since the deterministic
    tie-break can hide the flat representative of the optimal class.
    """
    tolerance = as_fraction(tolerance)
    _require_alphabet(problem, channel)
    costs, d = _bayes_costs(problem, prior, channel.rows)
    best = [min(row) for row in costs]
    rows = []
    for row, b in zip(costs, best):
        ties = [a for a, cost in enumerate(row) if cost == b]
        rows.append(tuple(Fraction(1, len(ties)) if a in ties else _ZERO
                          for a in range(len(row))))
    bayes_value = Fraction(sum(best), d)
    rule = DecisionRule(probs=tuple(rows))
    risks = [risk(problem, i, channel, rule) for i in range(len(problem.parameters))]
    spread = max(risks) - min(risks)
    if spread > tolerance:
        return False
    minimax_value, _ = minimax_risk(problem, channel)
    if abs(minimax_value - bayes_value) > tolerance:
        raise AssertionError(
            f"equalizer held but minimax {minimax_value} != bayes {bayes_value}")
    return True


@dataclass(frozen=True)
class InvarianceDeclaration:
    """A group with actions on parameters and actions (letters use the
    natural action)."""

    group: PermGroup
    parameter_action: GroupAction
    action_action: GroupAction


def verify_invariance(problem: DecisionProblem, declaration: InvarianceDeclaration,
                      prior: Prior | None = None) -> bool:
    """Exhaustively check model, loss, and optionally prior invariance."""
    group = declaration.group
    letters = problem.input_alphabet.letters
    par_index = {p: i for i, p in enumerate(problem.parameters)}
    act_index = {a: i for i, a in enumerate(problem.actions)}
    for g in group.elements:
        for i, par in enumerate(problem.parameters):
            gi = par_index[declaration.parameter_action.act(g, par)]
            for x in range(len(letters)):
                if problem.model[g(x)][gi] != problem.model[x][i]:
                    return False
            for a, act in enumerate(problem.actions):
                ga = act_index[declaration.action_action.act(g, act)]
                if problem.loss[gi][ga] != problem.loss[i][a]:
                    return False
            if prior is not None and prior.values[gi] != prior.values[i]:
                return False
    return True


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

